"""CacheArray against a reference LRU model: per set, a plain list of the
resident lines, oldest first."""

import random

from tilesim.mem.cache import CacheArray, LineState

LINE = 16


def test_fresh_array_holds_no_lines():
    array = CacheArray(size_bytes=8192, associativity=4, line_size=LINE)
    assert list(array.resident_lines()) == []
    assert not any(array.sets)
    assert array.victim(0) is None


def test_matches_reference_lru_under_install_touch_and_remove():
    array = CacheArray(size_bytes=2 * 4 * LINE, associativity=4, line_size=LINE)
    assert (array.n_sets, array.ways) == (2, 4)
    pool = [LINE * i for i in range(12)]  # six lines per set
    model = {0: [], 1: []}  # set -> resident lines, least recently used first
    removed = []
    rng = random.Random(5)
    counts = {"evict": 0, "touch": 0, "remove": 0}

    def set_of(addr):
        return (addr // LINE) % array.n_sets

    def held(addr):
        found = [line for line in model[set_of(addr)] if line.addr == addr]
        return found[0] if found else None

    def drop(line, why):
        array.remove(line)
        model[set_of(line.addr)].remove(line)
        removed.append(line)
        counts[why] += 1

    for _ in range(3000):
        addr = rng.choice(pool)
        ways = model[set_of(addr)]
        line = held(addr)
        op = rng.random()
        if op < 0.45:
            if line is None:  # the fabric installs only lines it does not hold
                victim = array.victim(addr)
                if victim is not None:  # the fabric removes the victim first
                    drop(victim, "evict")
                state = rng.choice([LineState.SHARED, LineState.MODIFIED])
                line = array.install(addr, bytearray(LINE), state)
                assert (line.addr, line.state) == (addr, state)
                ways.append(line)
        elif op < 0.8:
            if line is not None:
                array.touch(line)
                ways.remove(line)
                ways.append(line)
                counts["touch"] += 1
        elif line is not None:
            drop(line, "remove")

        for a in pool:
            assert array.lookup(a) is held(a), hex(a)
        for s, lines in model.items():
            expected = lines[0] if len(lines) == array.ways else None
            assert array.victim(s * LINE) is expected, f"set {s}"
        assert all(line.state is LineState.INVALID for line in removed[-1:])
        assert sorted(l.addr for l in array.resident_lines()) == \
            sorted(l.addr for lines in model.values() for l in lines)

    assert all(line.state is LineState.INVALID for line in removed)
    assert min(counts.values()) > 100, counts
