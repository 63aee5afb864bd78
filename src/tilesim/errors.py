"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimError):
    """Invalid machine configuration (caught at build time, not runtime)."""


class DecodeError(SimError):
    """Word does not encode a supported RV32I instruction."""

    def __init__(self, word: int, pc: int = 0):
        self.word = word & 0xFFFFFFFF
        self.pc = pc & 0xFFFFFFFF
        super().__init__(f"undecodable word 0x{self.word:08x} at pc 0x{self.pc:08x}")


class MemoryFault(SimError):
    """Access outside the backing store or a registered window."""

    def __init__(self, addr: int, reason: str = "out of bounds"):
        self.addr = addr & 0xFFFFFFFF
        super().__init__(f"memory fault at 0x{self.addr:08x}: {reason}")


class ProtocolError(SimError):
    """A coherence message illegal in the current stable state, or a host
    that would sleep with its mailbox status uncached or requested.

    Signals a simulator bug, never a workload error; aborts the run with the
    offending message in the text.
    """


class LoadError(SimError):
    """Guest binary cannot be loaded (bad ELF, segment out of region, ...)."""


class AsmError(SimError):
    """Assembly source rejected."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)
