"""Statistical workload synthesis.

Generates random programs whose dynamic behaviour matches a
:class:`WorkloadProfile` — instruction mix, branch density and bias,
atomic-region length distribution, consumers per value.  This complements
the hand-written SPEC kernels: property tests sweep profile space to probe
scheme correctness on program shapes nobody wrote by hand, and users can
model their own workloads.

The generator emits a chain of basic blocks.  Each block is a run of
straight-line code (the atomic-region material) terminated by the
profile's choice of branch / call / memory instruction; a loop around the
whole chain provides the dynamic length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..isa import Program, ProgramBuilder, ireg, vreg
from .bulkdraw import randrange_list

_DATA = 0x30000


@dataclass
class WorkloadProfile:
    """Statistical description of a synthetic workload.

    Fractions need not sum to one; they are sampled as relative weights
    for each emitted instruction.
    """

    name: str = "synthetic"
    #: Relative weights of instruction categories in straight-line code.
    alu_weight: float = 6.0
    mul_weight: float = 0.8
    div_weight: float = 0.1
    load_weight: float = 1.5
    store_weight: float = 0.8
    vec_weight: float = 0.0
    #: Average instructions per basic block (geometric distribution).
    block_length: float = 7.0
    #: Probability a block ends in a conditional branch (vs jump/fallthrough).
    branch_prob: float = 0.7
    #: Probability a conditional branch is taken (controls dynamic path).
    taken_bias: float = 0.5
    #: Number of distinct basic blocks in the generated program.
    blocks: int = 24
    #: Fraction of ALU results consumed 0, 1, 2, 3+ times (weights).
    consumer_weights: tuple = (1.0, 4.0, 2.0, 1.0)
    #: Working-set size in 8-byte words.
    working_set: int = 512
    seed: int = 1234


def synthesize(profile: WorkloadProfile, iterations: int = 32) -> Program:
    """Generate a program matching *profile*; outer loop runs *iterations*."""
    rng = random.Random(profile.seed)
    b = ProgramBuilder(profile.name)
    r, v = ireg, vreg
    b.words(_DATA, randrange_list(rng, min(profile.working_set, 2048), 1 << 20, start=1))

    # Register roles: r1 loop counter, r2 data pointer, r3 scratch base,
    # r4 constant one, r5..r12 value pool, r13 rng state.
    b.movi(r(1), iterations)
    b.movi(r(2), _DATA)
    b.movi(r(4), 1)
    b.movi(r(13), profile.seed % (1 << 20) + 3)
    for i in range(5, 13):
        b.movi(r(i), rng.randrange(1, 1 << 16))
    if profile.vec_weight > 0:
        for i in range(0, 6):
            b.vbroadcast(v(i), r(5 + i % 8))

    pool = list(range(5, 13))
    weights = [
        (profile.alu_weight, "alu"),
        (profile.mul_weight, "mul"),
        (profile.div_weight, "div"),
        (profile.load_weight, "load"),
        (profile.store_weight, "store"),
        (profile.vec_weight, "vec"),
    ]
    categories = [c for w, c in weights for _ in range(max(0, int(w * 10)))]
    if not categories:
        categories = ["alu"]

    mask = (min(profile.working_set, 2048) - 1) * 8

    def emit_body(block_rng: random.Random) -> None:
        length = max(1, int(block_rng.expovariate(1.0 / profile.block_length)))
        for _ in range(length):
            category = block_rng.choice(categories)
            dst = block_rng.choice(pool)
            a = block_rng.choice(pool)
            c = block_rng.choice(pool)
            if category == "alu":
                op = block_rng.choice(["add", "sub", "xor", "or", "and", "shl", "lea"])
                if op == "shl":
                    b.shl(r(dst), r(a), block_rng.randrange(1, 8))
                elif op == "lea":
                    b.lea(r(dst), r(a), block_rng.randrange(0, 64))
                else:
                    getattr(b, op if op not in ("or", "and") else op + "_")(r(dst), r(a), r(c))
            elif category == "mul":
                b.mul(r(dst), r(a), r(c))
            elif category == "div":
                b.div(r(dst), r(a), r(c))
            elif category == "load":
                b.and_(r(3), r(a), r(4))
                b.shl(r(3), r(a), 3)
                b.movi(r(14), mask)
                b.and_(r(3), r(3), r(14))
                b.add(r(3), r(3), r(2))
                b.ld(r(dst), r(3), 0)
            elif category == "store":
                b.shl(r(3), r(a), 3)
                b.movi(r(14), mask)
                b.and_(r(3), r(3), r(14))
                b.add(r(3), r(3), r(2))
                b.st(r(c), r(3), 0)
            elif category == "vec":
                vd, va, vb_ = (block_rng.randrange(6) for _ in range(3))
                choice = block_rng.random()
                if choice < 0.5:
                    b.vadd(v(vd), v(va), v(vb_))
                elif choice < 0.8:
                    b.vmul(v(vd), v(va), v(vb_))
                else:
                    b.vfma(v(vd), v(va), v(vb_), v(vd))

    # Pseudo-random branch decisions from an LCG over r13 keep the dynamic
    # path data-dependent (and hence realistically mispredictable).
    b.label("top")
    for block in range(profile.blocks):
        b.label(f"block{block}")
        emit_body(rng)
        if rng.random() < profile.branch_prob:
            # threshold on LCG state encodes the taken bias
            b.movi(r(14), 1103515245)
            b.mul(r(13), r(13), r(14))
            b.movi(r(14), 12345)
            b.add(r(13), r(13), r(14))
            b.shr(r(3), r(13), 16)
            b.movi(r(14), 1023)
            b.and_(r(3), r(3), r(14))
            b.movi(r(14), int(1024 * profile.taken_bias))
            b.cmp(r(3), r(14))
            target = f"block{rng.randrange(block + 1, profile.blocks)}" \
                if block + 1 < profile.blocks else "bottom"
            b.blt(target)
    b.label("bottom")
    b.sub(r(1), r(1), r(4))
    b.test(r(1), r(1))
    b.bne("top")
    b.halt()
    return b.build()


#: A few ready-made profiles used by tests and examples.
PROFILES = {
    "alu_heavy": WorkloadProfile(
        name="alu_heavy", alu_weight=10, load_weight=0.5, store_weight=0.2,
        branch_prob=0.3, block_length=12, seed=7,
    ),
    "branchy": WorkloadProfile(
        name="branchy", alu_weight=3, branch_prob=0.95, taken_bias=0.5,
        block_length=3, seed=8,
    ),
    "memory_bound": WorkloadProfile(
        name="memory_bound", alu_weight=2, load_weight=5, store_weight=2,
        working_set=2048, block_length=6, seed=9,
    ),
    "vector": WorkloadProfile(
        name="vector", alu_weight=2, vec_weight=6, load_weight=1,
        branch_prob=0.3, block_length=10, seed=10,
    ),
    "div_heavy": WorkloadProfile(
        name="div_heavy", alu_weight=4, div_weight=2, block_length=6, seed=11,
    ),
}
