"""CacheArray's line index against a linear scan of its LRU sets."""

import random

from tilesim.mem.cache import CacheArray, LineState


def scan(array, line_addr):
    """The reference lookup: the valid way holding line_addr, if any."""
    found = [line for ways in array.sets for line in ways
             if line.state is not LineState.INVALID and line.addr == line_addr]
    assert len(found) <= 1, f"0x{line_addr:x} valid in {len(found)} ways"
    return found[0] if found else None


def test_lookup_matches_scan_under_install_touch_and_invalidate():
    array = CacheArray(size_bytes=64, associativity=2, line_size=16)  # 2 sets x 2 ways
    assert (array.n_sets, array.ways) == (2, 2)
    pool = [16 * i for i in range(6)]  # three lines per set
    rng = random.Random(5)
    reinstalled_elsewhere = False

    for _ in range(2000):
        addr = rng.choice(pool)
        op = rng.random()
        line = array.lookup(addr)
        if op < 0.4:
            if line is None:  # the fabric installs only lines it does not hold
                stale = [w for ways in array.sets for w in ways
                         if w.addr == addr and w.state is LineState.INVALID]
                state = rng.choice([LineState.SHARED, LineState.MODIFIED])
                installed = array.victim(addr)
                array.install(installed, addr, bytearray(16), state)
                reinstalled_elsewhere |= any(w is not installed for w in stale)
        elif op < 0.7:
            if line is not None:
                array.touch(line)
        else:
            way = rng.choice(array.sets[array.set_index(addr)])
            way.state = LineState.INVALID  # the fabric's direct write, no hook
        for a in pool:
            assert array.lookup(a) is scan(array, a), hex(a)
        # install moves the victim's entry, so the index never outgrows the ways
        assert len(array._index) <= array.n_sets * array.ways

    assert reinstalled_elsewhere, "no invalidated line was re-installed into the other way"
