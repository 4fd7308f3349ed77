"""Tests for the pass manager: registry, pipelines, guards, pass libraries.

The central property (ISSUE satellite): every registered pass preserves
functional equivalence on fuzzed AIGs and XMGs, checked with the
differential checker in ``auto`` mode; and pipeline parsing round-trips
(``str(pipeline)`` reparses to the same passes).
"""

import pytest

from repro.core.cache import cache_key
from repro.core.flows import make_flow, run_flow
from repro.logic.aig import Aig
from repro.logic.network import network_cost
from repro.logic.xmg import Xmg
from repro.opt import (
    DEFAULT_XMG_PIPELINE,
    Pass,
    Pipeline,
    PipelineError,
    PipelineVerificationError,
    UnknownPassError,
    as_pipeline,
    available_passes,
    get_pass,
    named_pipelines,
    parse_pipeline,
    register_pass,
    unregister_pass,
)
from repro.opt.xmg_passes import (
    xmg_refactor,
    xmg_rewrite,
    xmg_strash,
    xmg_xor_simplify,
)
from repro.verify.differential import check_equivalent
from repro.verify.fuzz import random_aig, random_xmg

FUZZ_SEEDS = range(12)


def fuzzed_network(kind, seed):
    if kind == "aig":
        return random_aig(seed, num_pis=4, num_gates=14, num_pos=3)
    return random_xmg(seed, num_pis=4, num_gates=12, num_pos=3)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_passes_registered(self):
        names = {p.name for p in available_passes()}
        assert {
            "balance",
            "rewrite",
            "refactor",
            "dc2",
            "resyn2",
            "xmg_strash",
            "xmg_rewrite",
            "xmg_xor",
            "xmg_refactor",
        } <= names

    def test_network_type_filter(self):
        aig_names = {p.name for p in available_passes("aig")}
        xmg_names = {p.name for p in available_passes("xmg")}
        assert "balance" in aig_names and "balance" not in xmg_names
        assert "xmg_refactor" in xmg_names and "xmg_refactor" not in aig_names

    def test_aliases_resolve(self):
        assert get_pass("b") is get_pass("balance")
        assert get_pass("rw") is get_pass("rewrite")
        assert get_pass("rf") is get_pass("refactor")
        assert get_pass("xst") is get_pass("xmg_strash")
        assert get_pass("xrf") is get_pass("xmg_refactor")

    def test_unknown_name_has_suggestion(self):
        with pytest.raises(UnknownPassError) as excinfo:
            get_pass("rewritee")
        assert excinfo.value.suggestion == "rewrite"
        assert "did you mean" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)

    def test_register_rejects_collisions(self):
        with pytest.raises(ValueError):
            register_pass(Pass("balance", lambda n: n))

    def test_register_and_unregister_roundtrip(self):
        pass_ = Pass("tmp_identity", lambda n: n.cleanup(), aliases=("tmpid",))
        register_pass(pass_)
        try:
            assert get_pass("tmpid") is pass_
        finally:
            unregister_pass("tmp_identity")
        with pytest.raises(UnknownPassError):
            get_pass("tmp_identity")
        with pytest.raises(UnknownPassError):
            get_pass("tmpid")

    def test_named_pipeline_registered(self):
        assert DEFAULT_XMG_PIPELINE in named_pipelines()

    def test_pass_rejects_invalid_network_types(self):
        with pytest.raises(ValueError):
            Pass("bad", lambda n: n, network_types=("qmg",))


# ---------------------------------------------------------------------------
# Pipeline parsing
# ---------------------------------------------------------------------------


class TestPipelineParsing:
    @pytest.mark.parametrize(
        "spec, names",
        [
            ("b;rw;rf", ["balance", "rewrite", "refactor"]),
            ("dc2*3", ["dc2"] * 3),
            ("(b;rw)*2", ["balance", "rewrite", "balance", "rewrite"]),
            ("dc2 ; resyn2", ["dc2", "resyn2"]),
            ("b rw", ["balance", "rewrite"]),
            ("b;;rw;", ["balance", "rewrite"]),
            ("", []),
            ("none", []),
            ("off", []),
            ("dc2*0", []),
        ],
    )
    def test_parse(self, spec, names):
        assert parse_pipeline(spec).pass_names() == names

    @pytest.mark.parametrize(
        "spec",
        [
            "b;rw;rf",
            "dc2*3",
            "(b;rw)*2;rf",
            DEFAULT_XMG_PIPELINE,
            "xst;xrw;xxor;xrf",
            "",
        ],
    )
    def test_round_trip(self, spec):
        pipeline = parse_pipeline(spec)
        assert parse_pipeline(str(pipeline)) == pipeline
        # The canonical form is stable.
        assert str(parse_pipeline(str(pipeline))) == str(pipeline)

    def test_named_pipeline_expands(self):
        pipeline = parse_pipeline(DEFAULT_XMG_PIPELINE)
        assert pipeline.pass_names() == [
            "xmg_strash",
            "xmg_rewrite",
            "xmg_xor",
            "xmg_refactor",
        ] * 2
        assert pipeline.network_types() == frozenset({"xmg"})

    @pytest.mark.parametrize(
        "spec",
        ["(b;rw", "b)*2", "b*x", "b*-1", "*2", ";*", "b!rw"],
    )
    def test_structural_errors(self, spec):
        with pytest.raises((PipelineError, UnknownPassError)):
            parse_pipeline(spec)

    def test_unknown_pass_in_spec(self):
        with pytest.raises(UnknownPassError) as excinfo:
            parse_pipeline("b;xmg_strassh")
        assert excinfo.value.suggestion == "xmg_strash"

    def test_as_pipeline_coercions(self):
        assert as_pipeline(None) == Pipeline()
        assert as_pipeline("b") == parse_pipeline("b")
        pipeline = parse_pipeline("dc2")
        assert as_pipeline(pipeline) is pipeline
        with pytest.raises(TypeError):
            as_pipeline(42)

    def test_empty_pipeline_applies_everywhere(self):
        assert parse_pipeline("").network_types() == frozenset(
            {"aig", "xmg", "rev", "qc"}
        )


# ---------------------------------------------------------------------------
# Equivalence of every registered pass (the satellite property)
# ---------------------------------------------------------------------------


class TestPassEquivalence:
    @pytest.mark.parametrize(
        "pass_name",
        sorted(p.name for p in available_passes("aig")),
    )
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_aig_passes_preserve_equivalence(self, pass_name, seed):
        aig = fuzzed_network("aig", seed)
        result, report = get_pass(pass_name).run(aig)
        check = check_equivalent(aig, result, mode="auto")
        assert check.equivalent, (
            f"{pass_name} broke seed {seed}: {check.message}"
        )
        assert report.after.num_gates == result.num_gates()
        assert report.after.depth == result.depth()
        assert report.runtime_seconds >= 0.0

    @pytest.mark.parametrize(
        "pass_name",
        sorted(p.name for p in available_passes("xmg")),
    )
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_xmg_passes_preserve_equivalence(self, pass_name, seed):
        xmg = fuzzed_network("xmg", seed)
        result, report = get_pass(pass_name).run(xmg)
        check = check_equivalent(xmg, result, mode="auto")
        assert check.equivalent, (
            f"{pass_name} broke seed {seed}: {check.message}"
        )
        assert report.after.num_maj == result.num_maj()

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_default_xmg_pipeline_preserves_equivalence(self, seed):
        xmg = fuzzed_network("xmg", seed)
        outcome = parse_pipeline(DEFAULT_XMG_PIPELINE).run(xmg, guard="full")
        check = check_equivalent(xmg, outcome.network, mode="full")
        assert check.equivalent
        assert network_cost(outcome.network) <= network_cost(xmg.cleanup())


# ---------------------------------------------------------------------------
# XMG pass behaviour
# ---------------------------------------------------------------------------


class TestXmgPasses:
    def test_strash_folds_constants(self):
        xmg = Xmg()
        a = xmg.add_pi()
        # MAJ(a, 1, 0) = a is folded by the constructors on rebuild.
        xmg.add_po(xmg.create_maj(a, Xmg.CONST1, Xmg.CONST0))
        assert xmg_strash(xmg).num_gates() == 0

    def test_rewrite_absorption(self):
        # M(x, y, M(x, y, z)) = M(x, y, z): the outer MAJ disappears.
        xmg = Xmg()
        x, y, z = xmg.add_pi(), xmg.add_pi(), xmg.add_pi()
        inner = xmg.create_maj(x, y, z)
        xmg.add_po(xmg.create_maj(x, y, inner))
        rewritten = xmg_rewrite(xmg)
        assert rewritten.num_maj() == 1
        assert check_equivalent(xmg, rewritten, mode="full").equivalent

    def test_rewrite_complementary_absorption(self):
        # M(x, y, M(x', y', z)) = M(x, y, z).
        from repro.logic.lits import lit_not

        xmg = Xmg()
        x, y, z = xmg.add_pi(), xmg.add_pi(), xmg.add_pi()
        inner = xmg.create_maj(lit_not(x), lit_not(y), z)
        xmg.add_po(xmg.create_maj(x, y, inner))
        rewritten = xmg_rewrite(xmg)
        assert rewritten.num_maj() == 1
        assert check_equivalent(xmg, rewritten, mode="full").equivalent

    def test_xor_chain_cancellation(self):
        # a ^ b ^ a collapses to b: no gates left.
        xmg = Xmg()
        a, b = xmg.add_pi(), xmg.add_pi()
        xmg.add_po(xmg.create_xor(xmg.create_xor(a, b), a))
        simplified = xmg_xor_simplify(xmg)
        assert simplified.num_gates() == 0
        assert check_equivalent(xmg, simplified, mode="full").equivalent

    def test_xor_chain_rebalanced(self):
        xmg = Xmg()
        pis = [xmg.add_pi() for _ in range(8)]
        acc = pis[0]
        for literal in pis[1:]:
            acc = xmg.create_xor(acc, literal)
        xmg.add_po(acc)
        assert xmg.depth() == 7
        simplified = xmg_xor_simplify(xmg)
        assert simplified.depth() == 3
        assert simplified.num_xor() == 7
        assert check_equivalent(xmg, simplified, mode="full").equivalent

    def test_refactor_never_regresses(self):
        for seed in FUZZ_SEEDS:
            xmg = fuzzed_network("xmg", seed)
            refactored = xmg_refactor(xmg)
            assert network_cost(refactored) <= network_cost(xmg.cleanup())

    def test_refactor_empty_network(self):
        xmg = Xmg()
        a = xmg.add_pi()
        xmg.add_po(a)
        assert xmg_refactor(xmg).num_gates() == 0


# ---------------------------------------------------------------------------
# Pipeline execution: keep-best, guard, applicability
# ---------------------------------------------------------------------------


def build_and_chain(n=8):
    aig = Aig("chain")
    literals = [aig.add_pi() for _ in range(n)]
    acc = literals[0]
    for literal in literals[1:]:
        acc = aig.create_and(acc, literal)
    aig.add_po(acc)
    return aig


class TestPipelineExecution:
    def test_keep_best_is_lexicographic(self):
        """A depth-improving pass at equal node count is kept.

        Under the historical node-count-only rule balancing an AND chain
        (same size, smaller depth) was discarded; the lexicographic
        ``(gates, depth)`` objective keeps it.
        """
        chain = build_and_chain(8)
        assert chain.depth() == 7
        result = parse_pipeline("balance").run(chain)
        assert result.network.num_nodes() == chain.num_nodes()
        assert result.network.depth() == 3
        assert result.cost == (7, 3)

    def test_script_pipeline_keeps_depth_improvements(self):
        chain = build_and_chain(8)
        best = parse_pipeline("(balance)*1").run(chain).network
        assert best.depth() == 3

    def test_script_pipeline_legacy_names_and_errors(self):
        aig = build_and_chain(4)
        for script in ("dc2", "resyn2", "balance", "rewrite", "refactor"):
            optimized = parse_pipeline(f"({script})*2").run(aig).network
            assert check_equivalent(aig, optimized, mode="full").equivalent
        with pytest.raises(ValueError):
            parse_pipeline("(does-not-exist)*1")
        with pytest.raises(ValueError, match="did you mean 'dc2'"):
            parse_pipeline("(dc3)*1")

    def test_keep_best_survives_worsening_pass(self):
        def duplicate_logic(aig):
            # A deliberately counter-productive pass: rebuild with one
            # extra redundant gate per PO.
            new = aig.copy()
            pos = new.pos()
            extra = new.create_and(pos[0], new.pis()[0])
            new.add_po(new.create_or(extra, pos[0]), "junk")
            return new

        worsen = Pass(
            "tmp_worsen", duplicate_logic, network_types=("aig",)
        )
        register_pass(worsen)
        try:
            chain = build_and_chain(4)
            best = Pipeline([worsen]).run(chain).network
            assert best.num_nodes() == chain.num_nodes()
            current = Pipeline([worsen]).run(chain, keep_best=False).network
            assert current.num_nodes() > chain.num_nodes()
        finally:
            unregister_pass("tmp_worsen")

    def test_guard_catches_broken_pass(self):
        def flip_output(aig):
            from repro.logic.lits import lit_not

            new = Aig(aig.name)
            mapping = {}
            for pi, name in zip(aig.pis(), aig.pi_names()):
                mapping[pi] = new.add_pi(name)
            # Buggy on purpose: wires POs to complemented inputs.
            new.add_po(lit_not(new.pis()[0]))
            return new

        broken = Pass("tmp_broken", flip_output, network_types=("aig",))
        register_pass(broken)
        try:
            chain = build_and_chain(4)
            with pytest.raises(PipelineVerificationError) as excinfo:
                Pipeline([broken]).run(chain, guard="full")
            assert "tmp_broken" in str(excinfo.value)
            # Unguarded, the bad pass goes through silently (keep_best
            # cannot save it: the broken network is smaller).
            Pipeline([broken]).run(chain, guard="off")
        finally:
            unregister_pass("tmp_broken")

    def test_guard_passes_on_correct_pipeline(self):
        aig = fuzzed_network("aig", 3)
        outcome = parse_pipeline("b;rw;rf").run(aig, guard="full")
        assert outcome.guard == "full"
        assert len(outcome.reports) == 3
        assert outcome.total_runtime >= 0.0

    def test_wrong_network_type_raises(self):
        xmg = fuzzed_network("xmg", 0)
        with pytest.raises(PipelineError):
            parse_pipeline("balance").run(xmg)
        aig = fuzzed_network("aig", 0)
        with pytest.raises(PipelineError):
            parse_pipeline("xmg_strash").run(aig)

    def test_pass_apply_type_checks(self):
        with pytest.raises(TypeError):
            get_pass("balance").apply(fuzzed_network("xmg", 0))

    def test_empty_pipeline_is_identity_cleanup(self):
        aig = fuzzed_network("aig", 1)
        outcome = Pipeline().run(aig)
        assert check_equivalent(aig, outcome.network, mode="full").equivalent
        assert outcome.reports == []


# ---------------------------------------------------------------------------
# Flow / cache integration
# ---------------------------------------------------------------------------


class TestFlowIntegration:
    def test_opt_parameter_overrides_default(self):
        default = run_flow("esop", "intdiv", 3, verify="full")
        raw = run_flow("esop", "intdiv", 3, verify="full", opt="none")
        override = run_flow("esop", "intdiv", 3, verify="full", opt="b;rw;rf")
        for result in (default, raw, override):
            assert result.report.verified is True
        assert raw.context["extra_metrics"]["opt_pipeline"] == ""
        assert (
            override.context["extra_metrics"]["opt_pipeline"]
            == "balance;rewrite;refactor"
        )

    def test_unknown_opt_raises_value_error(self):
        with pytest.raises(ValueError, match="did you mean"):
            run_flow("esop", "intdiv", 3, verify="off", opt="dc3")

    def test_hierarchical_xmg_opt_reduces_t_count(self):
        plain = run_flow(
            "hierarchical", "intdiv", 4, verify="full", strategy="bennett"
        )
        optimized = run_flow(
            "hierarchical",
            "intdiv",
            4,
            verify="full",
            strategy="bennett",
            xmg_opt=DEFAULT_XMG_PIPELINE,
        )
        assert plain.report.verified and optimized.report.verified
        assert optimized.report.t_count < plain.report.t_count
        assert optimized.report.qubits <= plain.report.qubits
        metrics = optimized.context["extra_metrics"]
        assert metrics["xmg_opt_pipeline"] == str(
            parse_pipeline(DEFAULT_XMG_PIPELINE)
        )
        assert metrics["xmg_maj"] < plain.context["extra_metrics"]["xmg_maj"]

    @pytest.mark.parametrize("seed", range(8))
    def test_xmg_to_aig_roundtrip_preserves_equivalence(self, seed):
        from repro.logic.xmg_mapping import aig_to_xmg, xmg_to_aig

        xmg = fuzzed_network("xmg", seed)
        aig = xmg_to_aig(xmg)
        assert check_equivalent(xmg, aig, mode="full").equivalent
        # And the full round-trip through the pipeline stays equivalent.
        back = xmg_to_aig(
            parse_pipeline(DEFAULT_XMG_PIPELINE).run(aig_to_xmg(aig)).network
        )
        assert check_equivalent(aig, back, mode="full").equivalent

    def test_lut_xmg_opt_reduces_t_count(self):
        plain = run_flow(
            "lut", "intdiv", 4, verify="full", strategy="bennett", k=3
        )
        optimized = run_flow(
            "lut",
            "intdiv",
            4,
            verify="full",
            strategy="bennett",
            k=3,
            xmg_opt=DEFAULT_XMG_PIPELINE,
        )
        assert plain.report.verified and optimized.report.verified
        assert optimized.report.t_count < plain.report.t_count
        metrics = optimized.context["extra_metrics"]
        assert "xmg_opt_pipeline" in metrics

    def test_flow_opt_guard(self):
        result = run_flow(
            "hierarchical",
            "intdiv",
            3,
            verify="full",
            xmg_opt=DEFAULT_XMG_PIPELINE,
            opt_guard="full",
        )
        assert result.report.verified is True

    def test_flow_verify_catches_corrupting_pass(self):
        """Flow verification compares against the pre-pipeline AIG.

        A pass that silently changes the function must fail the flow's
        verify stage — the reference must not be the corrupted network
        itself (neither through ``opt`` nor through the lut flow's XMG
        round-trip).
        """
        from repro.logic.lits import lit_not
        from repro.logic.xmg import Xmg

        def corrupt_aig(aig):
            new = aig.cleanup()
            flipped = Aig(new.name)
            mapping = {}
            for pi, name in zip(new.pis(), new.pi_names()):
                mapping[pi] = flipped.add_pi(name)
            for po, name in zip(new.pos(), new.po_names()):
                flipped.add_po(lit_not(mapping.get(po, flipped.pis()[0])), name)
            return flipped

        def corrupt_xmg(xmg):
            # Wire every output to the first input: gate-free, so the
            # pipeline's keep-best tracking is certain to adopt it.
            new = Xmg(xmg.name)
            for pi, name in zip(xmg.pis(), xmg.pi_names()):
                new.add_pi(name)
            for _, name in zip(xmg.pos(), xmg.po_names()):
                new.add_po(new.pis()[0], name)
            return new

        register_pass(Pass("tmp_corrupt_aig", corrupt_aig, ("aig",)))
        register_pass(Pass("tmp_corrupt_xmg", corrupt_xmg, ("xmg",)))
        try:
            with pytest.raises(RuntimeError, match="verification failed"):
                run_flow(
                    "esop", "intdiv", 3, verify="full",
                    opt="dc2;tmp_corrupt_aig",
                )
            with pytest.raises(RuntimeError, match="verification failed"):
                run_flow(
                    "lut", "intdiv", 3, verify="full", strategy="bennett",
                    k=3, xmg_opt="tmp_corrupt_xmg",
                )
        finally:
            unregister_pass("tmp_corrupt_aig")
            unregister_pass("tmp_corrupt_xmg")

    def test_cache_key_depends_on_pipeline(self):
        flow = make_flow("hierarchical")
        keys = {
            cache_key(
                "module m; endmodule",
                "hierarchical",
                flow.prefix_keys("m", 4, parameters)[-1],
            )
            for parameters in ({}, {"opt": "none"}, {"xmg_opt": "xmg-default"})
        }
        assert len(keys) == 3
