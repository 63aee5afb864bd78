from .insn import CSR_CYCLE, CSR_CYCLEH, DecodeError, Instruction, OpClass, decode, sext
from .core import RunState, Rv32Core, StepResult

__all__ = [
    "CSR_CYCLE",
    "CSR_CYCLEH",
    "DecodeError",
    "Instruction",
    "OpClass",
    "RunState",
    "Rv32Core",
    "StepResult",
    "decode",
    "sext",
]
