"""Which coherence paths a run reaches, seen by wrapping one fabric's
handlers. Shared by the golden hammer and the tiny-fabric litmus test, which
each assert that their run still reaches the paths they exist to cover."""


def watch_coherence_paths(fabric) -> set:
    """Wrap the fabric instance's handlers; returns the set to which each
    path the run goes on to take is added: `Downgrade:<state>` and
    `Invalidate:<state>` by the state of the copy the request finds (`stale`
    if none), `L2 recall:<state>` by the L2 victim's directory state,
    and `Writeback`."""
    reached = set()
    cache_handle, writeback, evict_l2 = fabric.cache_handle, fabric._writeback, fabric._evict_l2

    def on_cache(tile, op, home, line_addr, now):
        line = fabric.l15[tile].lookup(line_addr)
        reached.add(f"{op}:{line.state.value if line is not None else 'stale'}")
        return cache_handle(tile, op, home, line_addr, now)

    def on_writeback(*args):
        reached.add("Writeback")
        return writeback(*args)

    def on_evict_l2(home, victim, *args):
        reached.add(f"L2 recall:{victim.state.value}")
        return evict_l2(home, victim, *args)

    fabric.cache_handle = on_cache
    fabric._writeback = on_writeback
    fabric._evict_l2 = on_evict_l2
    return reached
