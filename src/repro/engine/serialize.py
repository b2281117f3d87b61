"""JSON codecs for everything that crosses a process or disk boundary.

The engine ships :class:`~repro.x86.program.Program` and
:class:`~repro.testgen.testcase.Testcase` inputs to worker processes and
journals :class:`~repro.search.phases.PhaseResult`-shaped outputs to the
checkpoint store. Both transports use the same plain-JSON encoding so a
job result read back from a journal is bit-identical to one received
from a live worker — the property the resume guarantee rests on.

Programs are encoded slot by slot (``null`` marks an UNUSED padding
token) because the assembly printer drops padding, and fixed-length
rewrites must round-trip exactly.

The campaign progress stream (:mod:`repro.engine.events`) shares this
module's ``Json`` alias and :func:`require_fields` validation but
versions its records independently of the checkpoint manifest.
"""

from __future__ import annotations

from typing import Any

from repro.cost.correctness import CostWeights
from repro.errors import EngineError
from repro.search.config import SearchConfig
from repro.search.mcmc import ChainResult
from repro.telemetry.chain import ChainTelemetry
from repro.testgen.annotations import (Annotations, ConstantInput,
                                       InputKind, PointerInput,
                                       RandomInput, RangeInput)
from repro.testgen.testcase import Testcase
from repro.verifier.validator import LiveSpec
from repro.x86.instruction import UNUSED, Instruction, is_unused
from repro.x86.operands import Mem
from repro.x86.parser import parse_instruction
from repro.x86.program import Program
from repro.x86.registers import lookup

Json = dict[str, Any]


# -- programs -----------------------------------------------------------------

def program_to_json(prog: Program) -> Json:
    return {
        "slots": [None if is_unused(instr) else instr.text
                  for instr in prog.code],
        "labels": dict(prog.labels),
    }


#: Decoded instructions by slot text. A journal repeats a few hundred
#: distinct slots thousands of times; instructions are immutable, so
#: equal slots share one instance (and the step compiled onto it).
_DECODED: dict[str, Instruction] = {}
_DECODED_LIMIT = 1 << 14


def _decode_slot(slot: str) -> Instruction:
    instr = _DECODED.get(slot) if type(slot) is str else None
    if instr is None:
        # a slot that fails to parse raises here, before it is kept
        instr = parse_instruction(slot)
        if len(_DECODED) >= _DECODED_LIMIT:
            _DECODED.clear()
        _DECODED[slot] = instr
    return instr


def program_from_json(data: Json) -> Program:
    code = tuple(UNUSED if slot is None else _decode_slot(slot)
                 for slot in data["slots"])
    labels = {name: int(index)
              for name, index in data["labels"].items()}
    return Program(code, labels)


def program_key(prog: Program) -> str:
    """A dedup key: two programs with the same key behave identically."""
    compact = prog.compact()
    return repr((tuple(i.text for i in compact.code),
                 tuple(sorted(compact.labels.items()))))


# -- testcases ----------------------------------------------------------------

def testcase_to_json(testcase: Testcase) -> Json:
    return {
        "input_regs": [list(pair) for pair in testcase.input_regs],
        "input_memory": [list(pair) for pair in testcase.input_memory],
        "expected_regs": [list(pair) for pair in testcase.expected_regs],
        "expected_memory": [list(pair)
                            for pair in testcase.expected_memory],
        "valid_addresses": sorted(testcase.valid_addresses),
    }


def testcase_from_json(data: Json) -> Testcase:
    return Testcase(
        input_regs=tuple((name, value)
                         for name, value in data["input_regs"]),
        input_memory=tuple((addr, byte)
                           for addr, byte in data["input_memory"]),
        expected_regs=tuple((name, value)
                            for name, value in data["expected_regs"]),
        expected_memory=tuple((addr, byte)
                              for addr, byte in data["expected_memory"]),
        valid_addresses=frozenset(data["valid_addresses"]),
    )


# -- live specs and annotations -----------------------------------------------

def _mem_to_json(mem: Mem) -> Json:
    return {"base": mem.base.name if mem.base else None,
            "index": mem.index.name if mem.index else None,
            "scale": mem.scale, "disp": mem.disp}


def _mem_from_json(data: Json) -> Mem:
    return Mem(base=lookup(data["base"]) if data["base"] else None,
               index=lookup(data["index"]) if data["index"] else None,
               scale=data["scale"], disp=data["disp"])


def spec_to_json(spec: LiveSpec) -> Json:
    return {
        "live_in": list(spec.live_in),
        "live_out": list(spec.live_out),
        "mem_out": [[_mem_to_json(mem), nbytes]
                    for mem, nbytes in spec.mem_out],
    }


def spec_from_json(data: Json) -> LiveSpec:
    return LiveSpec(
        live_in=tuple(data["live_in"]),
        live_out=tuple(data["live_out"]),
        mem_out=tuple((_mem_from_json(mem), nbytes)
                      for mem, nbytes in data["mem_out"]),
    )


_INPUT_KINDS = {"random": RandomInput, "constant": ConstantInput,
                "range": RangeInput, "pointer": PointerInput}


def _input_to_json(kind: InputKind) -> Json:
    if isinstance(kind, RandomInput):
        return {"kind": "random", "mask": kind.mask}
    if isinstance(kind, ConstantInput):
        return {"kind": "constant", "value": kind.value}
    if isinstance(kind, RangeInput):
        return {"kind": "range", "lo": kind.lo, "hi": kind.hi}
    assert isinstance(kind, PointerInput)
    return {"kind": "pointer", "size": kind.size, "align": kind.align}


def _input_from_json(data: Json) -> InputKind:
    params = {key: value for key, value in data.items() if key != "kind"}
    return _INPUT_KINDS[data["kind"]](**params)


def annotations_to_json(annotations: Annotations) -> Json:
    return {name: _input_to_json(kind)
            for name, kind in annotations.inputs.items()}


def annotations_from_json(data: Json) -> Annotations:
    return Annotations({name: _input_from_json(kind)
                        for name, kind in data.items()})


# -- search configuration -----------------------------------------------------

_CONFIG_SCALARS = ("p_opcode", "p_operand", "p_swap", "p_instruction",
                   "p_unused", "beta", "ell", "improved_cost",
                   "synthesis_proposals", "optimization_proposals",
                   "optimization_restarts", "synthesis_chains",
                   "optimization_chains", "testcase_count",
                   "rank_window", "max_validation_rounds", "seed")

_WEIGHT_FIELDS = ("wsf", "wfp", "wur", "wm")


def config_to_json(config: SearchConfig) -> Json:
    data = {name: getattr(config, name) for name in _CONFIG_SCALARS}
    data["weights"] = {name: getattr(config.weights, name)
                       for name in _WEIGHT_FIELDS}
    return data


def config_from_json(data: Json) -> SearchConfig:
    kwargs = {name: data[name] for name in _CONFIG_SCALARS}
    kwargs["weights"] = CostWeights(**data["weights"])
    return SearchConfig(**kwargs)


# -- chain diagnostics --------------------------------------------------------

def chain_to_json(chain: ChainResult | None) -> Json | None:
    if chain is None:
        return None
    return {
        "best_program": program_to_json(chain.best_program),
        "best_cost": chain.best_cost,
        "current_program": program_to_json(chain.current_program),
        "current_cost": chain.current_cost,
        "zero_cost": [[cost, program_to_json(prog)]
                      for cost, prog in chain.zero_cost],
        "telemetry": chain.stats.to_json(),
    }


def chain_from_json(data: Json | None) -> ChainResult | None:
    if data is None:
        return None
    return ChainResult(
        best_program=program_from_json(data["best_program"]),
        best_cost=data["best_cost"],
        current_program=program_from_json(data["current_program"]),
        current_cost=data["current_cost"],
        zero_cost=[(cost, program_from_json(prog))
                   for cost, prog in data["zero_cost"]],
        stats=ChainTelemetry.from_json(data["telemetry"]),
    )


def require_fields(data: Json, fields: tuple[str, ...],
                   what: str) -> None:
    """Validate journal/manifest records before trusting them."""
    missing = [name for name in fields if name not in data]
    if missing:
        raise EngineError(f"corrupt {what}: missing {missing}")
