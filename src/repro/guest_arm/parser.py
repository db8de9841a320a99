"""UAL-syntax parser for the ARM32 subset.

Supports the instruction forms the MiniC backend emits, plus ``@``
comments.  Two comment annotations are understood, mirroring the debug
information a compiler would attach::

    ldr r0, [r1, #8]   @ line=42 var=count

``line=`` records the source line, ``var=`` the compiler-IR variable
name of the instruction's memory operand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.guest_arm.isa import split_mnemonic
from repro.guest_arm.registers import canonical_register
from repro.isa.instruction import Instruction
from repro.isa.operands import Imm, Label, Mem, Reg, ShiftedReg

_REGISTER_RE = re.compile(r"^(r\d+|sp|lr|pc)$", re.IGNORECASE)
_IMM_RE = re.compile(r"^#(-?(?:0x[0-9a-f]+|\d+))$", re.IGNORECASE)


@dataclass
class ParsedProgram:
    """A parsed assembly listing: instructions plus label positions."""

    instructions: list[Instruction]
    labels: dict[str, int]


def parse_program(text: str) -> ParsedProgram:
    """Parse a multi-line listing with labels and comments."""
    instructions: list[Instruction] = []
    labels: dict[str, int] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("@"):
            continue
        while True:
            label_match = re.match(r"^([.\w$]+):\s*(.*)$", line)
            if not label_match:
                break
            labels[label_match.group(1)] = len(instructions)
            line = label_match.group(2).strip()
        if line:
            instructions.append(parse_instruction(line))
    return ParsedProgram(instructions, labels)


def parse_instruction(text: str) -> Instruction:
    """Parse a single ARM instruction."""
    text, annotations = _strip_comment(text)
    parts = text.split(None, 1)
    mnemonic = parts[0].lower()
    split_mnemonic(mnemonic)  # validate early
    operand_text = parts[1] if len(parts) > 1 else ""
    operands = _parse_operands(mnemonic, operand_text)
    var = annotations.get("var")
    if var is not None:
        operands = [
            op.with_var(var) if isinstance(op, Mem) else op for op in operands
        ]
    line = annotations.get("line")
    return Instruction(
        mnemonic,
        tuple(operands),
        line=int(line) if line is not None else None,
    )


def _strip_comment(text: str) -> tuple[str, dict[str, str]]:
    annotations: dict[str, str] = {}
    if "@" in text:
        text, comment = text.split("@", 1)
        for match in re.finditer(r"(\w+)=([^\s,]+)", comment):
            annotations[match.group(1)] = match.group(2)
    return text.strip(), annotations


def _parse_operands(mnemonic: str, text: str) -> list:
    text = text.strip()
    if not text:
        return []
    base, _, _ = split_mnemonic(mnemonic)
    if base in ("push", "pop"):
        return _parse_reglist(text)
    if base in ("b", "bl"):
        return [Label(text.strip())]
    tokens = _split_top_level(text)
    operands: list = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        # ARM flexible operand: "rX, lsl #n" spans two comma tokens.
        if (
            i + 1 < len(tokens)
            and _REGISTER_RE.match(token)
            and re.match(r"^(lsl|lsr|asr)\s+", tokens[i + 1], re.IGNORECASE)
        ):
            shift_kind, amount_text = tokens[i + 1].split(None, 1)
            amount = _parse_shift_amount(amount_text)
            operands.append(
                ShiftedReg(Reg(canonical_register(token)), shift_kind.lower(), amount)
            )
            i += 2
            continue
        operands.append(_parse_operand(token))
        i += 1
    return operands


def _parse_reglist(text: str) -> list[Reg]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"bad register list {text!r}")
    regs: list[Reg] = []
    for item in text[1:-1].split(","):
        item = item.strip()
        if "-" in item and not item.startswith("-"):
            start, end = item.split("-")
            start_num = int(canonical_register(start.strip())[1:])
            end_num = int(canonical_register(end.strip())[1:])
            regs.extend(Reg(f"r{n}") for n in range(start_num, end_num + 1))
        elif item:
            regs.append(Reg(canonical_register(item)))
    return regs


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not inside brackets or braces."""
    tokens: list[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            tokens.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current).strip())
    return [tok for tok in tokens if tok]


def _parse_shift_amount(text: str) -> int:
    match = _IMM_RE.match(text.strip())
    if not match:
        raise ValueError(f"bad shift amount {text!r}")
    return int(match.group(1), 0)


def _parse_operand(token: str):
    token = token.strip()
    if _REGISTER_RE.match(token):
        return Reg(canonical_register(token))
    imm = _IMM_RE.match(token)
    if imm:
        return Imm(int(imm.group(1), 0))
    if token.startswith("["):
        return _parse_mem(token)
    # Bare word: branch-target label (e.g. for bx it's a register, but
    # bx is handled by the register case above).
    return Label(token)


def _parse_mem(token: str) -> Mem:
    if not token.endswith("]"):
        raise ValueError(f"bad memory operand {token!r}")
    inner = token[1:-1].strip()
    parts = [part.strip() for part in inner.split(",")]
    base = Reg(canonical_register(parts[0]))
    if len(parts) == 1:
        return Mem(base=base)
    second = parts[1]
    imm = _IMM_RE.match(second)
    if imm:
        return Mem(base=base, disp=int(imm.group(1), 0))
    index = Reg(canonical_register(second))
    scale = 1
    if len(parts) == 3:
        shift_match = re.match(r"^lsl\s+#(\d+)$", parts[2], re.IGNORECASE)
        if not shift_match:
            raise ValueError(f"bad index shift {parts[2]!r}")
        scale = 1 << int(shift_match.group(1))
    return Mem(base=base, index=index, scale=scale)
