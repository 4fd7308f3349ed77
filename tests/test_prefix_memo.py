"""Stage parameter declarations and stage-prefix sharing.

Every flow stage declares the context parameters it reads; the prefix keys
built from those declarations let the exploration engine run each distinct
stage prefix of a sweep once.  These tests pin that sharing never changes
a result, never mutates a shared artefact, and never keeps an entry after
its last reader.
"""

import hashlib
import random
from collections import Counter

import pytest

import repro.core.explorer as explorer_module
from repro.core.cache import CACHE_FORMAT_VERSION, cache_key
from repro.core.explorer import (
    ExplorationEngine,
    FlowConfiguration,
    build_sweep,
    default_configurations,
    flow_default_configurations,
)
from repro.core.flow import Flow, FlowStage, PrefixMemo
from repro.core.flows import available_flows, design_source, make_flow, run_flow
from repro.logic.aig import Aig
from repro.logic.esop import EsopCover
from repro.logic.xmg import Xmg
from repro.opt import as_pipeline
from repro.opt.pipeline import Pipeline
from repro.opt.targets import target_kind
from repro.reversible.circuit import ReversibleCircuit
from repro.reversible.pebbling import PebbleSchedule

#: Context keys every run seeds besides the declared parameters.
RUN_KEYS = {"design", "bitwidth", "extra_metrics"}

SHARED_SWEEP_FLOWS = ("symbolic", "esop", "hierarchical", "lut")


# -- declared reads -------------------------------------------------------------


class RecordingContext:
    """A view of a flow context that records every key read and written."""

    def __init__(self, context):
        self.context = context
        self.reads = set()
        self.writes = set()

    def __getitem__(self, key):
        self.reads.add(key)
        return self.context[key]

    def get(self, key, default=None):
        self.reads.add(key)
        return self.context.get(key, default)

    def __contains__(self, key):
        self.reads.add(key)
        return key in self.context

    def __setitem__(self, key, value):
        self.writes.add(key)
        self.context[key] = value

    def setdefault(self, key, default=None):
        if key in self.context:
            self.reads.add(key)
        else:
            self.writes.add(key)
        return self.context.setdefault(key, default)


def undeclared_reads(flow: Flow, design: str, bitwidth: int, **parameters):
    """Per stage, the keys it read that it neither declares nor got from an earlier stage."""
    log = []
    for stage in flow.stages:
        body = stage.run

        def recorded(context, _body=body, _stage=stage, **params):
            view = RecordingContext(context)
            _body(view, **params)
            log.append((_stage, view.reads, view.writes))

        stage.run = recorded
    flow.run(design, bitwidth, **parameters)
    violations = {}
    written = set(RUN_KEYS)
    for stage, reads, writes in log:
        stray = reads - written - set(stage.params)
        if stray:
            violations[stage.name] = sorted(stray)
        written |= writes
    return violations


@pytest.mark.parametrize("flow_name", sorted(available_flows()))
def test_stages_read_only_declared_parameters_and_earlier_artefacts(flow_name):
    for configuration in flow_default_configurations(flow_name):
        flow = make_flow(flow_name)
        violations = undeclared_reads(
            flow, "intdiv", 4, verify="auto", **configuration.as_kwargs()
        )
        assert violations == {}, configuration.label()


def test_undeclared_context_read_is_caught():
    def sneaky(context, *, declared=1):
        context.get("undeclared_knob")
        context["circuit"] = ReversibleCircuit("empty")

    flow = Flow("sneaky", [FlowStage("only", sneaky)])
    assert undeclared_reads(flow, "intdiv", 3) == {"only": ["undeclared_knob"]}


def test_stage_declaration_comes_from_keyword_only_arguments():
    stage = make_flow("lut").stages[3]
    assert stage.name == "lut-map"
    assert stage.params == {"k": 4, "max_cuts": 8, "cut_selection": "area"}
    assert stage.resolve({"k": 3, "p": 1}) == {
        "k": 3, "max_cuts": 8, "cut_selection": "area",
    }
    optimize = make_flow("hierarchical").stages[1]
    assert optimize.params == {"opt": "(resyn2)*2", "opt_guard": "off"}


def default_sweep_cache_keys_digest():
    """SHA-256 over the cache key of every default configuration's run.

    Covers each flow's default sweep and the paper's five configurations,
    on INTDIV(4) and NEWTON(4), keyed as the engine keys them (``verify``
    joins the parameters).
    """
    configurations = [
        configuration
        for flow in available_flows()
        for configuration in flow_default_configurations(flow)
    ] + default_configurations()
    keys = []
    for design in ("intdiv", "newton"):
        source = design_source(design, 4)
        for configuration in configurations:
            parameters = {**configuration.as_kwargs(), "verify": "auto"}
            flow = make_flow(configuration.flow)
            prefix_key = flow.prefix_keys(design, 4, parameters)[-1]
            keys.append(cache_key(source, configuration.flow, prefix_key))
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def test_default_sweep_cache_keys_move_only_with_the_format_version():
    # Stage declarations (defaults, body qualnames) feed every cache key:
    # a change here orphans every cached result, so it must come with a
    # CACHE_FORMAT_VERSION bump.  Update both halves of this pair together.
    assert (CACHE_FORMAT_VERSION, default_sweep_cache_keys_digest()) == (
        13,
        "ab87e9585b1ca3f554fc9e475ef877f9f5c182f242b9b71434c40f829eccc32d",
    )


# -- unknown parameters -----------------------------------------------------------


def test_misspelled_parameter_names_the_declared_one():
    with pytest.raises(ValueError, match="did you mean 'strategy'"):
        run_flow("lut", "intdiv", 4, strategyy="bounded")


def test_parameter_of_another_flow_is_rejected():
    with pytest.raises(ValueError, match="unknown parameter 'p' for flow 'lut'"):
        run_flow("lut", "intdiv", 3, p=3)
    with pytest.raises(ValueError, match="unknown parameter 'xmg_opt' for flow 'esop'"):
        run_flow("esop", "intdiv", 3, xmg_opt="xmg-default")
    for flow in ("esop", "symbolic"):  # the functional flows optimise no AIG
        with pytest.raises(ValueError, match=f"unknown parameter 'opt' for flow '{flow}'"):
            run_flow(flow, "intdiv", 3, opt="dc2")


def test_run_level_seeds_are_accepted():
    aig = run_flow("esop", "intdiv", 3, verify=False).context["spec_aig"]
    assert run_flow("esop", aig, 3, verify=False).report.qubits > 0
    source = design_source("intdiv", 3)
    assert run_flow("esop", "intdiv", 3, verify=False, verilog=source).report.qubits > 0


def test_unknown_parameter_fails_only_its_engine_task():
    tasks = build_sweep("intdiv", 3, [
        FlowConfiguration("esop", (("p", 0), ("strategy", "bennett"))),
        FlowConfiguration("esop", (("p", 1),)),
    ])
    outcomes = ExplorationEngine(jobs=1, verify=False).run(tasks)
    assert not outcomes[0].ok and "unknown parameter 'strategy'" in outcomes[0].error
    assert outcomes[1].ok


def test_hierarchical_strategy_error_names_the_parameter():
    # The hierarchical and lut flows resolve ``strategy`` through the one
    # pebbling registry, so both raise the same message.
    messages = set()
    for flow in ("hierarchical", "lut"):
        with pytest.raises(ValueError) as raised:
            run_flow(flow, "intdiv", 3, verify=False, strategy="benett")
        message = str(raised.value)
        messages.add(message)
        assert "'strategy' parameter" in message
        assert "'bennett'" in message and "'per_output'" in message
        assert "'eager'" in message and "'bounded'" in message
        assert "'exact'" not in message
        assert "did you mean 'bennett'?" in message
        assert "cleanup" not in message
    assert len(messages) == 1


# -- prefix keys and the memo -----------------------------------------------------


def test_prefix_keys_share_exactly_the_common_stages():
    esop = make_flow("esop")
    p0 = esop.prefix_keys("intdiv", 4, {"p": 0})
    p1 = esop.prefix_keys("intdiv", 4, {"p": 1})
    twin = esop.prefix_keys("intdiv", 4, {"p": 0, "rev_opt": "rev-default"})
    names = esop.stage_names()
    assert names.index("esop-synthesis") == 2
    assert p0[:2] == p1[:2] and p0[2] != p1[2]
    assert p0[:3] == twin[:3] and p0[3] != twin[3]
    assert esop.prefix_keys("newton", 4, {"p": 0})[0] != p0[0]
    assert esop.prefix_keys("intdiv", 5, {"p": 0})[0] != p0[0]


def test_unplain_parameters_end_the_shareable_prefix():
    flow = make_flow("hierarchical")
    aig = flow.run("intdiv", 3, verify=False).context["spec_aig"]
    assert flow.prefix_keys("intdiv", 3, {"aig": aig}) == [None] * len(flow.stages)
    piped = flow.prefix_keys("intdiv", 3, {"opt": as_pipeline("b;rw")})
    assert piped[0] is not None and piped[1:] == [None] * (len(flow.stages) - 1)


def memo_keeping(flow, design, bitwidth, **parameters):
    """A memo that stores every shareable prefix of one run."""
    keys = make_flow(flow).prefix_keys(design, bitwidth, parameters)
    return PrefixMemo(keep={key for key in keys if key is not None})


def test_unset_parameter_keys_by_the_flows_own_default():
    # ``opt=None`` means resyn2 twice, the one script of hierarchical and
    # lut; the functional flows share only the frontend with them.
    keys = {
        flow: make_flow(flow).prefix_keys("intdiv", 4, {"opt": None})
        for flow in ("esop", "symbolic", "hierarchical", "lut")
    }
    assert len({chain[0] for chain in keys.values()}) == 1
    assert keys["hierarchical"][1] == keys["lut"][1]
    other = make_flow("lut").prefix_keys("intdiv", 4, {"opt": "dc2"})
    assert other[1] != keys["lut"][1]
    for flow in ("esop", "symbolic"):
        assert "optimize" not in make_flow(flow).stage_names()


def test_same_named_stages_with_other_bodies_never_share():
    def first(context, *, knob=1):
        context["circuit"] = ReversibleCircuit("first")

    def second(context, *, knob=1):
        context["circuit"] = ReversibleCircuit("second")

    keys = [
        Flow(name, [FlowStage("only", body)]).prefix_keys("intdiv", 3, {})
        for name, body in (("a", first), ("b", second))
    ]
    assert keys[0] != keys[1]


def test_unset_parameter_sweep_equals_fresh_runs():
    # The functional flows share the frontend, and so the design AIG,
    # with flows that optimise it.
    configurations = [
        FlowConfiguration("esop"),
        FlowConfiguration("hierarchical", (("opt", None),)),
        FlowConfiguration("symbolic"),
        FlowConfiguration("lut", (("opt", None),)),
    ]
    tasks = build_sweep("intdiv", 4, configurations)
    outcomes = ExplorationEngine(jobs=1, verify=True).run(tasks)
    for outcome in outcomes:
        configuration = outcome.task.configuration
        fresh = run_flow(configuration.flow, "intdiv", 4, **configuration.as_kwargs())
        assert comparable(outcome.report) == comparable(fresh.report), outcome.label()


def test_memo_served_stages_are_skipped():
    flow = "hierarchical"
    memo = memo_keeping(flow, "intdiv", 3, verify=False, strategy="bennett")
    first = run_flow(flow, "intdiv", 3, verify=False, strategy="bennett", memo=memo)
    assert not first.skipped_stages
    second = run_flow(flow, "intdiv", 3, verify=False, strategy="per_output", memo=memo)
    assert second.skipped_stages == ["frontend", "optimize", "xmglut", "xmg-opt"]
    assert all(second.stage_runtimes[name] == 0.0 for name in second.skipped_stages)
    assert set(second.stage_runtimes) == set(make_flow(flow).stage_names())
    fresh = run_flow(flow, "intdiv", 3, verify=False, strategy="per_output")
    assert second.report.metrics() == fresh.report.metrics()
    assert second.context.keys() == fresh.context.keys()


def test_seeded_aig_runs_unshared():
    memo = memo_keeping("esop", "intdiv", 3, verify=False, p=0)
    aig = run_flow("esop", "intdiv", 3, verify=False).context["spec_aig"]
    result = run_flow("esop", aig, 3, verify=False, p=0, memo=memo)
    assert len(memo) == 0 and not result.skipped_stages


def test_configuration_verilog_never_shares_with_builtin():
    memo = memo_keeping("esop", "intdiv", 3, verify=False, p=0)
    run_flow("esop", "intdiv", 3, verify=False, p=0, memo=memo)
    # Even the identical text is its own design instance.
    source = design_source("intdiv", 3)
    result = run_flow("esop", "intdiv", 3, verify=False, p=0, verilog=source, memo=memo)
    assert not result.skipped_stages

    custom = "module intdiv (input [2:0] a, output [2:0] y); assign y = ~a; endmodule\n"
    tasks = build_sweep("intdiv", 3, [
        FlowConfiguration("esop", (("p", 0),)),
        FlowConfiguration("esop", (("p", 0), ("verilog", custom))),
        FlowConfiguration("esop", (("p", 1),)),
    ])
    builtin, own, _ = ExplorationEngine(jobs=1, verify=True).run(tasks)
    alone = run_flow("esop", "intdiv", 3, p=0, verilog=custom)
    assert own.report.metrics() == alone.report.metrics()
    assert own.report.t_count != builtin.report.t_count


def test_pipeline_runs_once_per_design_and_script(monkeypatch):
    calls = []
    original = Pipeline.run

    def counting(self, network, *args, **kwargs):
        if target_kind(network) == "aig":
            calls.append((network.num_pis(), str(self)))
        return original(self, network, *args, **kwargs)

    monkeypatch.setattr(Pipeline, "run", counting)
    # hierarchical and lut share the resyn2 prefix; esop optimises nothing.
    configurations = [
        FlowConfiguration("esop", (("p", 0),)),
        FlowConfiguration("hierarchical", (("strategy", "bennett"),)),
        FlowConfiguration("hierarchical", (("strategy", "per_output"),)),
        FlowConfiguration("hierarchical", (("opt", "dc2"),)),
        FlowConfiguration("lut", (("strategy", "bennett"),)),
        FlowConfiguration("lut", (("strategy", "bennett"), ("opt", "dc2"))),
    ]
    tasks = build_sweep(["intdiv", "newton"], 4, configurations)
    outcomes = ExplorationEngine(jobs=1, verify=False).run(tasks)
    assert all(outcome.ok for outcome in outcomes)
    scripts = Counter(script for _, script in calls)
    assert len(calls) == 4 and sorted(scripts.values()) == [2, 2]


# -- sharing is exact -------------------------------------------------------------


def fingerprint(value):
    """Structure of an artefact, blind to lazily filled caches."""
    if isinstance(value, Aig):
        return ("aig", [value.fanins(n) if value.is_and(n) else None for n in value.nodes()],
                value.pos())
    if isinstance(value, Xmg):
        return ("xmg", [(value.is_maj(n), value.is_xor(n), value.fanins(n))
                        for n in value.nodes()], value.pos())
    if isinstance(value, ReversibleCircuit):
        targets, care, polarity = value.gate_store().columns()
        return ("circuit", value.num_lines(), list(targets), list(care), list(polarity))
    if isinstance(value, PebbleSchedule):
        return ("schedule", [repr(step) for step in value.steps])
    if isinstance(value, EsopCover):
        return ("esop", [repr(term) for term in value.terms])
    if isinstance(value, dict):
        return tuple(sorted((key, fingerprint(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(item) for item in value)
    return repr(value)


class RecordingEntries(dict):
    """A memo entry table that keeps every stored entry and its fingerprint."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, artefacts):
        self.stored.append((artefacts, fingerprint(artefacts)))
        super().__setitem__(key, artefacts)


def sweep_tasks():
    configurations = [
        configuration
        for flow in SHARED_SWEEP_FLOWS
        for configuration in flow_default_configurations(flow)
    ]
    return build_sweep(["intdiv", "newton"], 4, configurations)


def comparable(report):
    data = report.to_dict()
    data.pop("runtime_seconds")
    return data


@pytest.fixture(scope="module")
def fresh_reports():
    return {
        task.label(): comparable(
            run_flow(
                task.configuration.flow,
                task.design,
                task.bitwidth,
                **task.configuration.as_kwargs(),
            ).report
        )
        for task in sweep_tasks()
    }


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("shuffle_seed", [None, 11])
def test_shared_sweep_equals_fresh_runs(fresh_reports, jobs, shuffle_seed, monkeypatch):
    memos = []

    class RecordingMemo(PrefixMemo):
        def __init__(self, keep):
            super().__init__(keep)
            self.entries = RecordingEntries()
            memos.append(self)

    monkeypatch.setattr(explorer_module, "PrefixMemo", RecordingMemo)
    tasks = sweep_tasks()
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(tasks)
    outcomes = ExplorationEngine(jobs=jobs, verify=True).run(tasks)
    assert all(outcome.ok for outcome in outcomes), [o.error for o in outcomes if not o.ok]
    for outcome in outcomes:
        assert comparable(outcome.report) == fresh_reports[outcome.label()], outcome.label()
    if jobs == 1:
        (memo,) = memos
        assert len(memo) == 0  # nothing outlives its last reader
        assert memo.entries.stored  # the sweep did share prefixes
        for artefacts, before in memo.entries.stored:
            assert fingerprint(artefacts) == before


def test_stage_set_does_not_depend_on_task_order(monkeypatch):
    calls = Counter()
    original = Flow.run

    def counting(self, design, bitwidth, memo=None, **parameters):
        result = original(self, design, bitwidth, memo=memo, **parameters)
        for name, runtime in result.stage_runtimes.items():
            if name not in result.skipped_stages:
                calls[name] += 1
        return result

    monkeypatch.setattr(Flow, "run", counting)
    configurations = flow_default_configurations("esop") + flow_default_configurations(
        "hierarchical"
    )
    tasks = build_sweep(["intdiv", "newton"], 3, configurations)
    counts = []
    for seed in (None, 1, 2):
        calls.clear()
        ordered = list(tasks)
        if seed is not None:
            random.Random(seed).shuffle(ordered)
        ExplorationEngine(jobs=1, verify=False).run(ordered)
        counts.append(dict(calls))
    # The esop and hierarchical flows share the frontend stage, so which
    # flow runs it depends on the order; how often each stage runs does not.
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["frontend"] == 2  # one per design
    assert counts[0]["optimize"] == 2  # resyn2 per design; esop has no optimize
    assert counts[0]["xmglut"] == 2
    assert counts[0]["xmg-opt"] == 4  # unset and xmg-default per design
    assert counts[0]["esop-synthesis"] == 4  # p=0 and p=1 per design


def test_plan_bounds_every_memo(fresh_reports, monkeypatch):
    tasks = sweep_tasks()
    random.Random(5).shuffle(tasks)
    engine = ExplorationEngine(jobs=2, verify=True)
    specs = [engine._task_spec(index, task) for index, task in enumerate(tasks)]
    chains = {spec["index"]: explorer_module._prefix_keys(spec, {}) for spec in specs}
    ordered = explorer_module._plan(specs, chains)
    # The users of every prefix key are adjacent in dispatch order.
    for key in {key for chain in chains.values() for key in chain if key}:
        users = [n for n, spec in enumerate(ordered) if key in chains[spec["index"]]]
        assert users == list(range(users[0], users[-1] + 1))
    # Two workers taking the specs in turn: each holds at most its current
    # spec's shared prefixes, and sharing never changes a result.
    workers = [PrefixMemo(keep=frozenset()), PrefixMemo(keep=frozenset())]
    held = []
    for position, spec in enumerate(ordered):
        memo = workers[position % 2]
        monkeypatch.setattr(explorer_module, "_WORKER_MEMO", memo)
        index, error, report = explorer_module._execute_task(spec)
        assert report is not None, error
        assert comparable(report) == fresh_reports[tasks[index].label()]
        assert set(memo.entries) <= spec["keep"] <= set(chains[spec["index"]])
        held.append(len(memo))
    assert max(held) > 0
