"""Differential tests for the threaded-code emulator kernel.

The kernel (`repro.emulator.kernel`) must be indistinguishable from the
interpretive reference (`repro.emulator.machine.run_image`) in every
observable: the block trace, all dynamic statistics, the opcode
histogram, final machine state, and the point and message of every
abort.  Fixed suite programs pin the real workloads; hypothesis
generates op/state combinations the suite never reaches.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import ModuleBuilder, compile_module
from repro.emulator import Machine, emulate, run_image
from repro.emulator.kernel import _compile_mop, plan_for, run_image_kernel
from repro.emulator.machine import _execute_mop
from repro.errors import EmulationError
from repro.isa import MultiOp, Opcode, Operation
from repro.isa.registers import gpr, pred
from repro.programs.suite import BENCHMARK_NAMES, compile_benchmark
from repro.utils.arith import wrap32

_SCALE = 2


def _both(compiled, **kwargs):
    reference = run_image(
        compiled.image, compiled.module.globals, **kwargs
    )
    kernel = run_image_kernel(
        compiled.image, compiled.module.globals, **kwargs
    )
    return reference, kernel


# ------------------------------------------------------------- suite
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_suite_program_runs_identical(name):
    compiled = compile_benchmark(name, _SCALE)
    reference, kernel = _both(compiled)
    ref_fp = reference.fingerprint()
    ker_fp = kernel.fingerprint()
    for fld, expected in ref_fp.items():
        assert ker_fp[fld] == expected, f"{name}: {fld} diverged"
    # Counter equality is dict equality: a zero-count entry on one side
    # only would slip past fingerprint's name/count view.
    assert kernel.opcode_counts == reference.opcode_counts


def test_dataclass_fields_equal_modulo_machine():
    compiled = compile_benchmark("compress", _SCALE)
    reference, kernel = _both(compiled)
    assert kernel.block_trace == reference.block_trace
    assert kernel.block_trace.typecode == reference.block_trace.typecode
    assert kernel.dynamic_ops == reference.dynamic_ops
    assert kernel.dynamic_mops == reference.dynamic_mops
    assert kernel.executed_ops == reference.executed_ops
    assert kernel.ideal_ipc == reference.ideal_ipc
    assert (
        kernel.machine.state_digest() == reference.machine.state_digest()
    )


# ------------------------------------------------------------- aborts
@pytest.mark.parametrize("budget", [1, 7, 57, 331])
def test_runaway_aborts_at_identical_point(budget):
    compiled = compile_benchmark("compress", _SCALE)
    outcomes = []
    for runner in (run_image, run_image_kernel):
        machine = Machine()
        with pytest.raises(EmulationError) as err:
            runner(
                compiled.image,
                compiled.module.globals,
                max_mops=budget,
                machine=machine,
            )
        outcomes.append((str(err.value), machine.state_digest()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == f"program exceeded {budget} dynamic MultiOps"


def _fdiv_by_zero_program():
    mb = ModuleBuilder("fdz")
    mb.global_array("result", words=1)
    b = mb.function("main", num_args=0)
    z = b.iconst(0)
    fz = b.freg()
    b.i2f(fz, z)
    o = b.iconst(1)
    fo = b.freg()
    b.i2f(fo, o)
    d = b.freg()
    b.fdiv(d, fo, fz)
    b.halt()
    b.done()
    return compile_module(mb.build(), opt=False)


def test_fdiv_by_zero_aborts_identically():
    compiled = _fdiv_by_zero_program()
    outcomes = []
    for runner in (run_image, run_image_kernel):
        machine = Machine()
        with pytest.raises(EmulationError) as err:
            runner(compiled.image, compiled.module.globals, machine=machine)
        outcomes.append(
            (type(err.value), str(err.value), machine.state_digest())
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == "floating-point division by zero"


# ------------------------------------------------------------ op soup
#: The floating-point opcodes no suite program executes; the op soup is
#: the only kernel-vs-reference run that reaches them.
_FP_OPCODES = {
    Opcode.F2I, Opcode.FABS, Opcode.FADD, Opcode.FDIV, Opcode.FMPY,
    Opcode.I2F,
}


def _op_soup_program(iterations: int):
    """A synthetic loop touching every execution path the threaded-code
    kernel specializes: int/fp/compare/memory ops, predicated moves (via
    ``select``) and a call/ret pair."""
    mb = ModuleBuilder("opsoup")
    mb.global_array("buf", words=64)
    mb.global_array("result", words=1)

    helper = mb.function("mix", num_args=1)
    hv = helper.arg(0)
    out = helper.ireg()
    helper.xori(out, hv, 0x5A5A)
    helper.srai(out, out, 3)
    helper.ret(out)
    helper.done()

    b = mb.function("main", num_args=0)
    base = b.ireg()
    b.la(base, "buf")
    i = b.ireg()
    b.li(i, 0)
    acc = b.ireg()
    b.li(acc, 1)
    total = b.iconst(iterations)
    # Loop 1: integer ALU, memory traffic, a call/ret pair and a
    # predicated select.  (No FP state may live across the call — FP
    # spill slots cannot be expressed in the baseline encoding.)
    b.label("iloop")
    slot = b.ireg()
    b.modi(slot, i, 64)
    b.store_index(base, slot, acc)
    back = b.ireg()
    b.load_index(back, base, slot)
    b.mpyi(acc, acc, 1103515245)
    b.addi(acc, acc, 12345)
    b.xor(acc, acc, back)
    mixed = b.ireg()
    b.call("mix", [acc], ret=mixed)
    lo = b.ireg()
    b.andi(lo, mixed, 0xFF)
    p = b.preg()
    b.cmpi_gt(p, lo, 127)
    picked = b.ireg()
    b.select(picked, p, lo, acc)
    b.add(acc, acc, picked)
    b.addi(i, i, 1)
    pg = b.preg()
    b.cmp_lt(pg, i, total)
    b.br_if(pg, "iloop")
    # Loop 2: the floating-point families.
    facc = b.freg()
    seed = b.iconst(3)
    b.i2f(facc, seed)
    cap = b.freg()
    big = b.iconst(65536)
    b.i2f(cap, big)
    b.li(i, 0)
    b.label("floop")
    fstep = b.freg()
    step = b.ireg()
    b.andi(step, i, 0xFF)
    b.i2f(fstep, step)
    b.fadd(facc, facc, fstep)
    b.fmpy(facc, facc, facc)
    b.fabs_(facc, facc)
    b.fdiv(facc, facc, cap)
    b.addi(i, i, 1)
    pf = b.preg()
    b.cmp_lt(pf, i, total)
    b.br_if(pf, "floop")
    fout = b.ireg()
    b.f2i(fout, facc)
    b.xor(acc, acc, fout)
    outp = b.ireg()
    b.la(outp, "result")
    b.store(outp, acc)
    b.halt()
    b.done()
    return compile_module(mb.build())


def test_op_soup_runs_identical():
    reference, kernel = _both(_op_soup_program(200))
    assert _FP_OPCODES <= set(reference.opcode_counts)
    assert kernel.fingerprint() == reference.fingerprint()
    assert kernel.opcode_counts == reference.opcode_counts


# --------------------------------------------------------- dispatcher
def test_emulate_dispatches_to_kernel_by_default(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(
        "repro.emulator.kernel.run_image_kernel",
        lambda *a, **k: sentinel,
    )
    compiled = compile_benchmark("compress", _SCALE)
    assert emulate(compiled.image, compiled.module.globals) is sentinel


def test_plan_is_memoized_per_image():
    compiled = compile_benchmark("compress", _SCALE)
    assert plan_for(compiled.image) is plan_for(compiled.image)


# ------------------------------------------------- VLIW group compile
def _run_step(mop, machine):
    rt = [0, Counter()]
    return _compile_mop(mop)(machine, rt), rt


class TestCompiledMopSemantics:
    def test_swap_reads_before_writes(self):
        machine = Machine()
        machine.gpr[1], machine.gpr[2] = 11, 22
        mop = MultiOp.of([
            Operation(Opcode.MOV, dest=gpr(1), src1=gpr(2)),
            Operation(Opcode.MOV, dest=gpr(2), src1=gpr(1)),
        ])
        _run_step(mop, machine)
        assert (machine.gpr[1], machine.gpr[2]) == (22, 11)

    def test_two_control_transfers_rejected(self):
        machine = Machine()
        mop = MultiOp.of([
            Operation(Opcode.BR, target_block=1),
            Operation(Opcode.BR, target_block=2),
        ])
        with pytest.raises(EmulationError, match="two control"):
            _run_step(mop, machine)

    def test_predicated_second_control_is_fine(self):
        machine = Machine()  # p1 is False
        mop = MultiOp.of([
            Operation(Opcode.BR, target_block=1),
            Operation(Opcode.BR, target_block=2, predicate=pred(1)),
        ])
        control, rt = _run_step(mop, machine)
        assert control is not None and control[1] == 1
        assert rt == [0, Counter()]  # the nullified op counted nothing

    def test_store_applied_after_reads(self):
        machine = Machine()
        machine.gpr[1] = 256
        machine.gpr[2] = 5
        machine.store(256, 99, 2)
        mop = MultiOp.of([
            Operation(Opcode.LD, dest=gpr(3), src1=gpr(1)),
            Operation(Opcode.ST, src1=gpr(1), src2=gpr(2)),
        ])
        _run_step(mop, machine)
        assert machine.gpr[3] == 99
        assert machine.load_word(256) == 5

    def test_predicated_op_counts_dynamically(self):
        machine = Machine()
        machine.pr[2] = True
        machine.gpr[4] = 9
        mop = MultiOp.of([
            Operation(
                Opcode.MOV, dest=gpr(5), src1=gpr(4), predicate=pred(2)
            ),
        ])
        _, rt = _run_step(mop, machine)
        assert machine.gpr[5] == 9
        assert rt == [1, Counter({Opcode.MOV: 1})]


# --------------------------------------------------------- hypothesis
_BINARY_OPCODES = (
    Opcode.ADD, Opcode.SUB, Opcode.MPY, Opcode.AND, Opcode.OR,
    Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.SRA, Opcode.MIN,
    Opcode.MAX, Opcode.DIV, Opcode.MOD, Opcode.CMPP_EQ, Opcode.CMPP_NE,
    Opcode.CMPP_LT, Opcode.CMPP_LE, Opcode.CMPP_GT, Opcode.CMPP_GE,
)
_UNARY_OPCODES = (Opcode.MOV, Opcode.ABS, Opcode.NOT)

_int32 = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
_reg_index = st.integers(min_value=0, max_value=31)


@st.composite
def _arith_cases(draw):
    opcode = draw(st.sampled_from(_BINARY_OPCODES + _UNARY_OPCODES))
    if opcode.is_compare:
        dest = pred(draw(_reg_index))
    else:
        dest = gpr(draw(_reg_index))
    src1 = gpr(draw(_reg_index))
    src2 = (
        gpr(draw(_reg_index)) if opcode in _BINARY_OPCODES else None
    )
    op = Operation(opcode, dest=dest, src1=src1, src2=src2)
    registers = draw(
        st.lists(_int32, min_size=32, max_size=32)
    )
    return op, registers


@given(_arith_cases())
@settings(max_examples=300, deadline=None)
def test_compiled_arithmetic_matches_execute_op(case):
    """A closure-compiled op and `_execute_op` (via `_execute_mop`)
    leave two machines in identical register state — or raise the
    identical error — from any 32-bit register file."""
    op, registers = case
    ref_machine, ker_machine = Machine(), Machine()
    ref_machine.gpr[:] = registers
    ker_machine.gpr[:] = registers
    assert all(wrap32(v) == v for v in registers)

    mop = MultiOp.of([op])
    outcomes = []
    for machine, execute in (
        (ref_machine, lambda m: _execute_mop(m, mop.ops, Counter())),
        (ker_machine, lambda m: _compile_mop(mop)(m, [0, Counter()])),
    ):
        try:
            execute(machine)
            outcomes.append(None)
        except EmulationError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert ker_machine.gpr == ref_machine.gpr
    assert ker_machine.pr == ref_machine.pr
    assert ker_machine.state_digest() == ref_machine.state_digest()
