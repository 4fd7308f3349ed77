"""``Aig.cleanup`` / ``Xmg.cleanup`` of clean networks, and the networks
of the ``structural`` benchmark workload.

A clean network (every gate reachable, the inputs at nodes ``1..k``) is
copied rather than rebuilt through the hashing constructors.  The copy
must equal the rebuild node for node, must not call a constructor, and
must share no list or dict with its source.  The optimised AIGs and XMGs
of INTDIV(8) and NEWTON(6) are pinned by digest, so no change to the
cleanup or the pass internals can alter a single node of them.
"""

import hashlib
import random

import pytest

from oracles.logic import cleanup_reference, xmg_cleanup_reference
from repro.core.flows import frontend_artifacts
from repro.io.aiger import write_aiger
from repro.logic.aig import Aig
from repro.logic.xmg import Xmg
from repro.logic.xmg_mapping import aig_to_xmg
from repro.opt import as_pipeline
from repro.verify.fuzz import random_aig, random_xmg


def xmg_structure(xmg):
    """Everything ``Xmg.cleanup`` must reproduce."""
    return (
        xmg.name,
        list(xmg._kind),
        list(xmg._fanins),
        xmg.pis(),
        xmg.pi_names(),
        xmg.pos(),
        xmg.po_names(),
        sorted(xmg._strash.items()),
    )


def aig_structure(aig):
    """Everything ``Aig.cleanup`` must reproduce."""
    return (
        aig.name,
        list(aig._fanin0),
        list(aig._fanin1),
        aig.pis(),
        aig.pi_names(),
        aig.pos(),
        aig.po_names(),
        sorted(aig._strash.items()),
    )


def dirty_xmg(seed):
    """A seeded XMG with dangling gates, late inputs and odd outputs."""
    rng = random.Random(seed)
    xmg = Xmg(f"dirty{seed}")
    literals = [xmg.add_pi() for _ in range(rng.randint(1, 3))]
    for step in range(rng.randint(0, 40)):
        if rng.random() < 0.15:
            literals.append(xmg.add_pi(f"late{step}" if rng.random() < 0.5 else None))
            continue
        a, b, c = (
            rng.choice(literals + [0, 1]) ^ rng.randint(0, 1) for _ in range(3)
        )
        if rng.random() < 0.5:
            literals.append(xmg.create_maj(a, b, c))
        else:
            literals.append(xmg.create_xor(a, b))
    for index in range(rng.randint(0, 4)):
        lit = rng.choice(literals + [0, 1]) ^ rng.randint(0, 1)
        xmg.add_po(lit, f"y{index}" if rng.random() < 0.5 else None)
    return xmg


def clean_xmg():
    """Every gate reachable, inputs first, complemented and constant POs."""
    xmg = Xmg("clean")
    a, b, c = xmg.add_pi("a"), xmg.add_pi("b"), xmg.add_pi("c")
    maj = xmg.create_maj(a, b ^ 1, c)
    xmg.add_po(xmg.create_xor(maj, a) ^ 1, "y")
    xmg.add_po(xmg.create_and(maj, c), "z")
    xmg.add_po(Xmg.CONST1, "one")
    xmg.add_po(a ^ 1)
    return xmg


def clean_aig():
    aig = Aig("clean")
    a, b, c = aig.add_pi("a"), aig.add_pi("b"), aig.add_pi("c")
    ab = aig.create_and(a, b ^ 1)
    aig.add_po(aig.create_xor(ab, c) ^ 1, "y")
    aig.add_po(Aig.CONST0, "zero")
    aig.add_po(b ^ 1)
    return aig


def hand_built_xmgs():
    """The dirty shapes the rebuild must still handle, one per case."""
    dangling = Xmg("dangling")
    a, b, c = dangling.add_pi(), dangling.add_pi(), dangling.add_pi()
    dangling.create_maj(a, b, c)  # never read
    dangling.add_po(dangling.create_xor(a, c) ^ 1, "y")

    unreachable = Xmg("unreachable_pi")
    a, b = unreachable.add_pi("a"), unreachable.add_pi("b")
    unreachable.add_pi("unused")
    unreachable.add_po(unreachable.create_and(a, b))

    late = Xmg("late_pi")
    a, b = late.add_pi("a"), late.add_pi("b")
    ab = late.create_or(a, b)
    c = late.add_pi("c")
    late.add_po(late.create_maj(ab, c, a ^ 1), "y")

    constants = Xmg("constant_pos")
    a, b = constants.add_pi(), constants.add_pi()
    constants.create_xor(a, b)  # dangling too
    constants.add_po(Xmg.CONST0, "zero")
    constants.add_po(Xmg.CONST1, "one")
    constants.add_po(a ^ 1, "not_a")

    return [dangling, unreachable, late, constants, clean_xmg()]


# ---------------------------------------------------------------------------
# Xmg.cleanup against the plain rebuild
# ---------------------------------------------------------------------------


class TestXmgCleanupMatchesOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_xmgs(self, seed):
        xmg = random_xmg(
            seed, num_pis=1 + seed % 6, num_gates=seed % 25, num_pos=1 + seed % 4
        )
        assert xmg_structure(xmg.cleanup()) == xmg_structure(xmg_cleanup_reference(xmg))

    @pytest.mark.parametrize("seed", range(60))
    def test_dirty_xmgs(self, seed):
        xmg = dirty_xmg(seed)
        assert xmg_structure(xmg.cleanup()) == xmg_structure(xmg_cleanup_reference(xmg))

    @pytest.mark.parametrize("index", range(5))
    def test_hand_built_xmgs(self, index):
        xmg = hand_built_xmgs()[index]
        assert xmg_structure(xmg.cleanup()) == xmg_structure(xmg_cleanup_reference(xmg))


# ---------------------------------------------------------------------------
# The clean-network copy: no constructor calls, no shared state
# ---------------------------------------------------------------------------


@pytest.fixture
def constructor_calls(monkeypatch):
    """Counts of ``Aig.create_and`` and ``Xmg.create_maj``/``create_xor``
    calls."""
    calls = {"aig": 0, "xmg": 0}
    create_and = Aig.create_and
    create_maj = Xmg.create_maj
    create_xor = Xmg.create_xor

    def counting_create_and(self, a, b):
        calls["aig"] += 1
        return create_and(self, a, b)

    def counting_create_maj(self, a, b, c):
        calls["xmg"] += 1
        return create_maj(self, a, b, c)

    def counting_create_xor(self, a, b):
        calls["xmg"] += 1
        return create_xor(self, a, b)

    monkeypatch.setattr(Aig, "create_and", counting_create_and)
    monkeypatch.setattr(Xmg, "create_maj", counting_create_maj)
    monkeypatch.setattr(Xmg, "create_xor", counting_create_xor)
    return calls


def clean_aigs():
    aigs = [clean_aig()] + [random_aig(seed).cleanup() for seed in range(10)]
    unreachable = Aig("unreachable_pi")
    a, b = unreachable.add_pi(), unreachable.add_pi()
    unreachable.add_pi("unused")  # the rebuild keeps every input
    unreachable.add_po(unreachable.create_and(a, b))
    return aigs + [unreachable]


def clean_xmgs():
    # hand_built_xmgs()[1] is clean apart from its unread input.
    return [clean_xmg(), hand_built_xmgs()[1]] + [
        random_xmg(seed).cleanup() for seed in range(10)
    ]


#: The lists and dicts a network object holds.
COMMON_STATE = ("_pis", "_pi_names", "_pos", "_po_names", "_strash")
AIG_STATE = ("_fanin0", "_fanin1") + COMMON_STATE
XMG_STATE = ("_kind", "_fanins") + COMMON_STATE


class TestCleanNetworkCopy:
    def test_clean_aigs_call_no_constructor(self, constructor_calls):
        networks = clean_aigs()
        constructor_calls["aig"] = 0
        for aig in networks:
            cleaned = aig.cleanup()
            assert aig_structure(cleaned) == aig_structure(cleanup_reference(aig))
        # cleanup_reference builds through create_and_reference, which the
        # counter does not see.
        assert constructor_calls["aig"] == 0

    def test_clean_xmgs_call_no_constructor(self, constructor_calls):
        networks = clean_xmgs()
        expected = [xmg_structure(xmg_cleanup_reference(xmg)) for xmg in networks]
        constructor_calls["xmg"] = 0
        assert [xmg_structure(xmg.cleanup()) for xmg in networks] == expected
        assert constructor_calls["xmg"] == 0

    def test_dirty_networks_are_rebuilt(self, constructor_calls):
        # The counters see the rebuild: a dangling gate or a late input
        # takes it, so the zero counts above are not vacuous.
        dangling, _, late, _, _ = hand_built_xmgs()
        for xmg in (dangling, late):
            constructor_calls["xmg"] = 0
            xmg.cleanup()
            assert constructor_calls["xmg"] > 0
        aig = Aig("late_pi")
        a, b = aig.add_pi(), aig.add_pi()
        ab = aig.create_and(a, b)
        aig.add_po(aig.create_and(ab, aig.add_pi()))
        constructor_calls["aig"] = 0
        aig.cleanup()
        assert constructor_calls["aig"] > 0

    @pytest.mark.parametrize("index", range(12))
    def test_aig_copy_shares_no_state(self, index):
        source = clean_aigs()[index]
        before = aig_structure(source)
        copy = source.cleanup()
        assert copy is not source
        for attr in AIG_STATE:
            assert getattr(copy, attr) is not getattr(source, attr), attr
        extra = copy.add_pi("extra")
        copy.add_po(copy.create_and(extra, copy.pis()[0] ^ 1), "extra_out")
        copy.name = "renamed"
        assert aig_structure(source) == before

    @pytest.mark.parametrize("index", range(12))
    def test_xmg_copy_shares_no_state(self, index):
        source = clean_xmgs()[index]
        before = xmg_structure(source)
        copy = source.cleanup()
        assert copy is not source
        for attr in XMG_STATE:
            assert getattr(copy, attr) is not getattr(source, attr), attr
        extra = copy.add_pi("extra")
        first = copy.pis()[0]
        xor = copy.create_xor(extra, first)
        copy.add_po(copy.create_maj(extra, first ^ 1, xor), "extra_out")
        copy.name = "renamed"
        assert xmg_structure(source) == before


# ---------------------------------------------------------------------------
# The structural workload's networks, pinned
# ---------------------------------------------------------------------------

#: SHA-256 of ``write_aiger`` of the ``(dc2)*1`` and ``(resyn2)*2`` AIGs and
#: of ``(kinds, fanins, pos)`` of the ``aig_to_xmg`` XMG of the latter and
#: of that XMG after ``xmg-default``.
STRUCTURAL_DIGESTS = {
    ("intdiv", 8): {
        "dc2": "0a8204b89743c958170298a20ed56b6e03ac98d4b9ecc82596874180b46f4064",
        "resyn2": "954bb07359e16f3d6cf8a496bce55def637d9ef562bc531ebe0ad22ce535c96b",
        "xmg": "b8e8e1a26888c765cb597587528484b4cf81e3aa4739fea6b9aec5b7172a2ded",
        "xmg-default": "f8641f2f7a7db6f0f75c440b0f51e6a9d720aa6c513a35c288cea7f9f6bf0d97",
    },
    ("newton", 6): {
        "dc2": "7e3952afc94c5ae060a2ed55fc15569845e75efe113d4c4b4c76b64052e6d564",
        "resyn2": "a3b5ce34bfabc64cba67d38fdd2c538a0765295b0ebebf95585a0c861b60b01e",
        "xmg": "638cc9c263bae1e447d8632967566e041a97590bc6904376af6d07c4d11516f6",
        # xmg-default finds no improvement on NEWTON(6) and keeps its input.
        "xmg-default": "638cc9c263bae1e447d8632967566e041a97590bc6904376af6d07c4d11516f6",
    },
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def xmg_digest(xmg):
    return sha256(repr((xmg._kind, xmg._fanins, xmg._pos)))


@pytest.mark.parametrize("design, bitwidth", sorted(STRUCTURAL_DIGESTS))
def test_structural_networks_unchanged(design, bitwidth):
    aig = frontend_artifacts(design, bitwidth)["aig"]
    dc2 = as_pipeline("(dc2)*1").run(aig).network
    resyn2 = as_pipeline("(resyn2)*2").run(aig).network
    xmg = aig_to_xmg(resyn2, k=4)
    optimised = as_pipeline("xmg-default").run(xmg).network
    assert {
        "dc2": sha256(write_aiger(dc2)),
        "resyn2": sha256(write_aiger(resyn2)),
        "xmg": xmg_digest(xmg),
        "xmg-default": xmg_digest(optimised),
    } == STRUCTURAL_DIGESTS[(design, bitwidth)]
