"""Resource versions are interned: equal field values are one object.

Engine memo keys embed versions, so versions hash by identity (a C
slot) instead of by value.  That is only sound while two equal versions
can never coexist, so every way a version comes into being — the
constructor, ``from_dict``, pickle, copy, ``dataclasses.replace`` and
the json wire — must hand back the canonical object.
"""

import copy
import dataclasses
import pickle
import sys
import threading

import pytest

from repro.core import wire
from repro.errors import LibraryError
from repro.library import paper_library
from repro.library.version import _INTERNED, ResourceVersion

FIELDS = ("add", "intern-adder", 3, 2, 0.995, "ripple-carry")


@pytest.fixture()
def version():
    return ResourceVersion(*FIELDS)


class TestCanonicalObject:
    def test_constructor(self, version):
        assert ResourceVersion(*FIELDS) is version
        assert ResourceVersion(rtype="add", name="intern-adder", area=3,
                               delay=2, reliability=0.995,
                               description="ripple-carry") is version

    def test_from_dict(self, version):
        assert ResourceVersion.from_dict(version.to_dict()) is version

    @pytest.mark.parametrize("protocol",
                             range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_every_protocol(self, version, protocol):
        assert pickle.loads(pickle.dumps(version, protocol)) is version

    def test_copy_and_deepcopy(self, version):
        assert copy.copy(version) is version
        assert copy.deepcopy(version) is version
        assert copy.deepcopy([version, (version,)])[1][0] is version

    def test_dataclasses_replace(self, version):
        assert dataclasses.replace(version) is version
        bigger = dataclasses.replace(version, area=5)
        assert bigger is ResourceVersion("add", "intern-adder", 5, 2,
                                         0.995, "ripple-carry")
        assert version.area == 3

    def test_json_wire_decode(self, version):
        payload = wire.encode({"v": version, "lib": paper_library()},
                              "json")
        decoded = wire.decode(payload, "json")
        assert decoded["v"] is version
        for original in paper_library():
            assert decoded["lib"].version(original.name) is original

    def test_hash_is_identity_and_eq_is_value(self, version):
        assert ResourceVersion.__hash__ is object.__hash__
        assert hash(version) == object.__hash__(version)
        assert version == ResourceVersion(*FIELDS)
        assert version != dataclasses.replace(version, delay=1)
        assert version < dataclasses.replace(version, area=4)
        assert "_cached_hash" not in vars(version)


class TestTableIntegrity:
    @pytest.mark.parametrize("bad", [
        dict(rtype=""), dict(name=""), dict(area=0), dict(delay=-1),
        dict(reliability=0.0), dict(reliability=1.5),
        dict(reliability=float("nan")),
    ])
    def test_failed_validation_leaves_no_entry(self, bad):
        values = dict(zip(("rtype", "name", "area", "delay",
                           "reliability", "description"), FIELDS))
        values.update(bad)
        before = dict(_INTERNED)
        with pytest.raises(LibraryError):
            ResourceVersion(**values)
        assert _INTERNED == before

    def test_other_numeric_type_does_not_mutate_canonical(self, version):
        again = ResourceVersion("add", "intern-adder", 3.0, 2.0, 0.995,
                                "ripple-carry")
        assert again is version
        assert type(version.area) is int and type(version.delay) is int
        assert version.to_dict()["area"] == 3

    def test_frozen(self, version):
        with pytest.raises(dataclasses.FrozenInstanceError):
            version.area = 9

    def test_threads_constructing_one_version_get_one_object(
            self, monkeypatch):
        import time

        from repro.library import version as version_module

        class YieldingTable(dict):
            """Sleeps after every lookup, so racing threads all miss
            before any of them publishes its new object."""

            def get(self, key, default=None):
                found = super().get(key, default)
                time.sleep(0.001)
                return found

        monkeypatch.setattr(version_module, "_INTERNED",
                            YieldingTable(_INTERNED))
        threads_n, rounds = 8, 20
        barrier = threading.Barrier(threads_n)
        seen = [[None] * threads_n for _ in range(rounds)]

        def build(slot):
            for r in range(rounds):
                barrier.wait(timeout=10)
                seen[r][slot] = ResourceVersion(
                    "mul", f"race-{r}", 2, 1, 0.9)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=build, args=(slot,))
                       for slot in range(threads_n)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for r, row in enumerate(seen):
            assert len({id(v) for v in row}) == 1, r
            assert row[0] is ResourceVersion("mul", f"race-{r}", 2, 1, 0.9)
