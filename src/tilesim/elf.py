"""Minimal ELF32 support: read static RV32 executables, write assembler output.

The loader accepts exactly what the host agent supports: ELFCLASS32,
little-endian, ET_EXEC, EM_RISCV, statically linked (no PT_INTERP/PT_DYNAMIC).
The writer emits one PT_LOAD per segment plus a symbol table, enough for
`readelf` and for the tohost-convention test runner.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import LoadError

EM_RISCV = 243
ET_EXEC = 2
ET_DYN = 3
PT_LOAD = 1
PT_DYNAMIC = 2
PT_INTERP = 3
SHT_SYMTAB = 2
SHT_STRTAB = 3
SHT_PROGBITS = 1
SHN_ABS = 0xFFF1

_EHDR = struct.Struct("<16sHHIIIIIHHHHHH")
_PHDR = struct.Struct("<IIIIIIII")
_SHDR = struct.Struct("<IIIIIIIIII")
_SYM = struct.Struct("<IIIBBH")


@dataclass
class Segment:
    vaddr: int
    data: bytes
    memsz: int  # >= len(data); the tail is zero-filled


@dataclass
class ElfImage:
    entry: int
    segments: list[Segment]
    symbols: dict[str, int]

    @property
    def max_addr(self) -> int:
        return max(s.vaddr + s.memsz for s in self.segments)


def parse_elf(blob: bytes) -> ElfImage:
    if len(blob) < _EHDR.size or blob[:4] != b"\x7fELF":
        raise LoadError("not an ELF file")
    (ident, e_type, e_machine, _ver, e_entry, e_phoff, e_shoff, _flags,
     _ehsize, e_phentsize, e_phnum, e_shentsize, e_shnum, _shstrndx) = _EHDR.unpack_from(blob)
    if ident[4] != 1:
        raise LoadError("not a 32-bit ELF")
    if ident[5] != 1:
        raise LoadError("not a little-endian ELF")
    if e_machine != EM_RISCV:
        raise LoadError(f"not a RISC-V binary (machine {e_machine})")
    if e_type == ET_DYN:
        raise LoadError("dynamically linked binaries are unsupported")
    if e_type != ET_EXEC:
        raise LoadError(f"not an executable (type {e_type})")

    segments = []
    for i in range(e_phnum):
        off = e_phoff + i * e_phentsize
        if off + _PHDR.size > len(blob):
            raise LoadError("truncated program headers")
        p_type, p_offset, p_vaddr, _paddr, p_filesz, p_memsz, _pflags, _align = (
            _PHDR.unpack_from(blob, off)
        )
        if p_type in (PT_DYNAMIC, PT_INTERP):
            raise LoadError("dynamically linked binaries are unsupported")
        if p_type != PT_LOAD:
            continue
        if p_offset + p_filesz > len(blob):
            raise LoadError("segment data out of file bounds")
        if p_memsz < p_filesz:
            raise LoadError("segment memsz < filesz")
        segments.append(Segment(p_vaddr, blob[p_offset : p_offset + p_filesz], p_memsz))
    if not segments:
        raise LoadError("no loadable segments")

    symbols = _read_symbols(blob, e_shoff, e_shentsize, e_shnum)
    return ElfImage(e_entry, segments, symbols)


def _read_symbols(blob, e_shoff, e_shentsize, e_shnum) -> dict[str, int]:
    symbols: dict[str, int] = {}
    if not e_shoff:
        return symbols
    headers = []
    for i in range(e_shnum):
        off = e_shoff + i * e_shentsize
        if off + _SHDR.size > len(blob):
            return symbols  # tolerate a damaged section table: symbols are optional
        headers.append(_SHDR.unpack_from(blob, off))
    for sh in headers:
        sh_type, sh_offset, sh_size, sh_link, sh_entsize = sh[1], sh[4], sh[5], sh[6], sh[9]
        if sh_type != SHT_SYMTAB or sh_entsize == 0:
            continue
        if sh_link >= len(headers):
            continue
        str_off, str_size = headers[sh_link][4], headers[sh_link][5]
        strtab = blob[str_off : str_off + str_size]
        for j in range(sh_size // sh_entsize):
            st_name, st_value, _sz, _info, _other, _shndx = _SYM.unpack_from(
                blob, sh_offset + j * sh_entsize
            )
            if st_name == 0:
                continue
            end = strtab.find(b"\x00", st_name)
            name = strtab[st_name:end].decode("ascii", "replace")
            symbols[name] = st_value
    return symbols


def build_elf(segments: list[Segment], entry: int, symbols: dict[str, int] | None = None) -> bytes:
    """Serialize segments + symbols into a static RV32 executable."""
    symbols = symbols or {}
    phoff = _EHDR.size
    data_off = phoff + len(segments) * _PHDR.size
    blob = bytearray(data_off)

    phdrs = []
    for seg in segments:
        pad = -len(blob) % 4
        blob += b"\x00" * pad
        phdrs.append((PT_LOAD, len(blob), seg.vaddr, seg.vaddr, len(seg.data),
                      seg.memsz, 0x7, 4))  # rwx: one flat segment model
        blob += seg.data

    strtab = bytearray(b"\x00")
    syms = bytearray(_SYM.size)  # null symbol
    for name, value in sorted(symbols.items()):
        st_name = len(strtab)
        strtab += name.encode("ascii") + b"\x00"
        syms += _SYM.pack(st_name, value, 0, 0x10, 0, SHN_ABS)  # GLOBAL NOTYPE ABS

    shstrtab = b"\x00.text\x00.symtab\x00.strtab\x00.shstrtab\x00"
    name_off = {".text": 1, ".symtab": 7, ".strtab": 15, ".shstrtab": 23}

    symtab_off = len(blob)
    blob += syms
    strtab_off = len(blob)
    blob += strtab
    shstrtab_off = len(blob)
    blob += shstrtab
    shoff = len(blob) + (-len(blob) % 4)
    blob += b"\x00" * (shoff - len(blob))

    first = segments[0]
    sections = [
        _SHDR.pack(0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        _SHDR.pack(name_off[".text"], SHT_PROGBITS, 0x6, first.vaddr, phdrs[0][1],
                   len(first.data), 0, 0, 4, 0),
        _SHDR.pack(name_off[".symtab"], SHT_SYMTAB, 0, 0, symtab_off, len(syms),
                   3, 1, 4, _SYM.size),
        _SHDR.pack(name_off[".strtab"], SHT_STRTAB, 0, 0, strtab_off, len(strtab), 0, 0, 1, 0),
        _SHDR.pack(name_off[".shstrtab"], SHT_STRTAB, 0, 0, shstrtab_off, len(shstrtab),
                   0, 0, 1, 0),
    ]
    for sh in sections:
        blob += sh

    ident = b"\x7fELF" + bytes([1, 1, 1, 0]) + b"\x00" * 8
    _EHDR.pack_into(
        blob, 0, ident, ET_EXEC, EM_RISCV, 1, entry, phoff, shoff, 0,
        _EHDR.size, _PHDR.size, len(segments), _SHDR.size, len(sections), 4,
    )
    for i, ph in enumerate(phdrs):
        _PHDR.pack_into(blob, phoff + i * _PHDR.size, *ph)
    return bytes(blob)


def program_to_elf(program) -> bytes:
    """Convenience: wrap an assembler Program into a single-segment executable."""
    seg = Segment(program.base, program.data, len(program.data))
    return build_elf([seg], program.entry, program.symbols)
