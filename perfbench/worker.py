"""Measuring process for one workload, started fresh by run.py.

Set-up is importing numpy and alloy2fa and building the workload's
inputs; the worker prints ``ready`` when it is done. At the start of
every round it starts a fresh copy of itself that stops there, and
times it from start to ready. It then prints one JSON line.

Work is split into units: translating every input, or certifying every
emitted fact, under one translator configuration. A round runs every
unit a fixed number of times, and a run makes as many whole rounds as
fit in ``--seconds``, so every unit runs equally often. Every certify
unit starts from empty tuple-space caches and takes the inputs in the
same order, so each input meets the same cache state in every run of
the unit, as in a fresh CLI process.

A time metric is the median, over the run's passes of a unit, of one
pass's total: the time of translating every input, or of certifying
every emitted fact. On a shared host a neighbour slows pure-Python code
by 1.3 to 2.5x in spells of seconds to minutes, longer than a run. So
each pass is scaled to a fixed host speed: ``reference()``, a fixed
pure-Python job, is timed just before and just after the pass, and the
pass's time is multiplied by ``REFERENCE_S`` over their mean. A pass
that a workload lists as ``unscaled`` is reported as measured: the
large-carrier oracle spends its time in numpy, which the neighbour
barely slows, so scaling would add the reference's swings to it. The
set-up time is not scaled either; it does not follow the reference.
The medians of the passes as measured are printed, not reported.

With ``--trace 1`` every unit runs both traced and untraced. The traced
run calls each stage on its own inside a span; the untraced run calls
the public ``translate_form``/``translate_form_h``. The difference of
their times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy  # noqa: F401  (part of the set-up every CLI user pays)

from alloy2fa import decls, expand, frontend, heuristics, oracle, pipeline
from alloy2fa import terms
from alloy2fa.pipeline import TranslateError
from alloy2fa.strategy import BudgetError
from alloy2fa.terms import RLFormula

import corpus
import run

TRANSLATE_ERRORS = (TranslateError, BudgetError, RecursionError)
# reference() on a 2-vCPU Xeon guest when no neighbour slows it; time
# metrics are scaled to this host speed
REFERENCE_S = 0.008


@dataclass(frozen=True)
class Config:
    """One translator configuration: its public entry point, its traced
    rewrite call, and its rule banks in the order a shared rule name is
    attributed (the first bank holding the name gets the firing)."""

    name: str
    translate_form: Callable  # (core formula, arities) -> fact
    rewrite: Callable  # RL formula -> (fact, trace)
    banks: tuple  # (bank name, frozenset of rule names)


def _banks(*pairs):
    return tuple((name, frozenset(r.name for r in rules))
                 for name, rules in pairs)


_MECH_BANKS = _banks(("normalize", pipeline._NORMALIZE_RULES),
                     ("frame", pipeline._FRAME_RULES),
                     ("combine", pipeline._COMBINE_RULES),
                     ("discharge", pipeline._DISCHARGE_RULES))

CONFIGS = (
    Config("mech", pipeline.translate_form,
           lambda rl: pipeline.translate_with_trace(rl)[:2], _MECH_BANKS),
    Config("short", heuristics.translate_form_h,
           heuristics.translate_h_with_trace,
           _banks(("logic", heuristics.LOGIC_RULES),
                  ("definition", heuristics.DEFINITION_RULES),
                  ("algebra", heuristics.ALGEBRA_RULES),
                  ("fact", heuristics.FACT_RULES)) + _MECH_BANKS),
)


class Tracer:
    """Seconds per span name around the benchmark's calls into each
    module, plus counts."""

    def __init__(self):
        self.seconds = Counter()
        self.counts = Counter()

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


def _span(tr, name):
    return tr.span(name) if tr is not None else nullcontext()


def rl_nodes(f: RLFormula) -> int:
    """Number of formula nodes (applications count once, terms not)."""
    n, stack = 0, [f]
    while stack:
        x = stack.pop()
        n += 1
        for fl in dataclasses.fields(x):
            v = getattr(x, fl.name)
            if isinstance(v, RLFormula):
                stack.append(v)
    return n


@dataclass
class Emitted:
    facts: list  # every emitted fact, declarations first
    texts: list  # fact_text of each
    checks: list  # (source formula, fact) pairs the oracle certifies
    failures: list  # messages of translations that raised


def translate_input(inp, cfg: Config, tr) -> Emitted:
    """Input to emitted facts.

    Untraced (tr is None) this is the CLI path: parse, desugar,
    check_arities, symbol_table, declaration_facts, translate_form[_h],
    fact_text. Traced, the translator call is split into expand_form and
    the traced rewrite so each gets its own span.
    """
    with _span(tr, "frontend.parse"):
        model = frontend.parse(inp.text)
    with _span(tr, "frontend.desugar"):
        core = frontend.check_arities(frontend.desugar(model))
        table = frontend.symbol_table(core)
    with _span(tr, "decls"):
        facts = decls.declaration_facts(table)
    if tr is not None:
        tr.counts["frontend.tokens"] += len(frontend.lex(inp.text))
        tr.counts["decls.facts"] += len(facts)
    checks, failures = [], []
    for form in (a.form for a in core.asserts):
        try:
            if tr is None:
                fact = cfg.translate_form(form, table.rel_arity)
            else:
                fact = _traced_translate(form, table.rel_arity, cfg, tr)
        except TRANSLATE_ERRORS as exc:
            failures.append("%s: %s translation raised %s: %s"
                            % (inp.id, cfg.name, type(exc).__name__, exc))
            continue
        facts.append(fact)
        checks.append((form, fact))
    with _span(tr, "terms.emit"):
        texts = [terms.fact_text(f) for f in facts]
    return Emitted(facts, texts, checks, failures)


def _traced_translate(form, arity, cfg: Config, tr: Tracer):
    with tr.span("expand"):
        rl = expand.expand_form(form, arity,
                                closure=pipeline.star_lifter(arity))
    with tr.span(cfg.name + ".rewrite"):
        fact, trace = cfg.rewrite(rl)
    c = tr.counts
    c["expand.rl_nodes"] += rl_nodes(rl)
    c["expand.nesting"] = max(c["expand.nesting"], pipeline.nesting(rl))
    c["steps"] += len(trace)
    for step in trace:
        bank = next((b for b, names in cfg.banks if step.rule in names),
                    "other")
        c["fires." + bank] += 1
    # drop_vars facts carry no width stamp; framed facts always do
    c["drop_vars"] += fact.width == 0
    c["jobs"] += 1
    return fact


def carrier_width(source, fact, vocab) -> int:
    """The tuple width check_equiv builds its carrier for."""
    names = oracle.mentioned_rels(source) | oracle.mentioned_rels(fact)
    w = max(fact.width or 1, oracle.infer_width(fact))
    for r in names & set(vocab.rels):
        w = max(w, len(vocab.rels[r]) - 1)
    return w


def certify(wl, cfg: Config, emitted: dict, tr):
    """check_equiv on every emitted fact, from cold tuple-space caches.

    The sampler keeps check_equiv's fixed seed, so a sampled check draws
    the same models, and costs the same, whatever the run's seed.
    """
    oracle._SPACES.clear()
    settings = wl.oracle[cfg.name]
    atoms = tuple("a%d" % i for i in range(settings["bound"]))
    total, verdicts = 0.0, []
    for inp in wl.inputs:
        vocab = wl.vocabs[inp.id]
        for source, fact in emitted[inp.id].checks:
            t0 = time.perf_counter()
            if tr is not None:
                with tr.span("oracle.space"):
                    space = oracle.get_tuple_space(
                        atoms, carrier_width(source, fact, vocab))
                tr.counts["carrier"] = max(tr.counts["carrier"], space.n)
            with _span(tr, "oracle.check"):
                v = oracle.check_equiv(source, fact, vocab, **settings)
            total += time.perf_counter() - t0
            verdicts.append((inp.id, v))
    return total, verdicts


def digest(emitted: dict) -> str:
    """sha256 of every fact_text, inputs in id order (not run order)."""
    h = hashlib.sha256()
    for key in sorted(emitted):
        for text in emitted[key].texts:
            h.update(text.encode())
            h.update(b"\n")
    return h.hexdigest()


class Run:
    """State of one measuring run: samples, outputs and failures."""

    def __init__(self, wl):
        self.wl = wl
        # (stage, cfg, traced) -> seconds of each unit run, at reference
        # speed, and as measured
        self.samples = defaultdict(list)
        self.raw = defaultdict(list)
        self.tracers = defaultdict(list)  # (stage, cfg) -> traced Tracers
        self.emitted = {}  # cfg -> {input id: Emitted}, first translation
        self.digests = {}
        self.verdicts = {}  # cfg -> [(input id, Verdict)], first certify
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.setups = []  # seconds from interpreter start to ready
        self.reference_s = []  # before and after every timing
        self.round_s = []  # wall time of each round, probe included

    def fail(self, msg: str):
        self.failed += 1
        if msg not in self.failures:
            self.failures.append(msg)

    def scale(self, before: float) -> float:
        """Factor that takes a timing to reference speed, given the
        reference() time just before it; times reference() again after."""
        after = reference()
        self.reference_s += [before, after]
        return REFERENCE_S * 2 / (before + after)

    def unit(self, stage: str, cfg: Config, traced: bool):
        tr = Tracer() if traced else None
        gc.collect()
        before = reference()
        if stage == "translate":
            out = {}
            t0 = time.perf_counter()
            for inp in self.wl.inputs:
                out[inp.id] = translate_input(inp, cfg, tr)
            total = time.perf_counter() - t0
            for em in out.values():
                self.attempted += len(em.checks) + len(em.failures)
                for msg in em.failures:
                    self.fail(msg)
            d = digest(out)
            if cfg.name not in self.digests:
                self.digests[cfg.name] = d
                self.emitted[cfg.name] = out
                recorded = self.wl.digests.get(cfg.name)
                if recorded is not None and d != recorded:
                    self.fail("%s: facts sha256 %s differs from the "
                              "recorded %s" % (cfg.name, d, recorded))
            elif d != self.digests[cfg.name]:
                self.fail("%s: facts differ between runs of one process"
                          % cfg.name)
        else:
            total, verdicts = certify(self.wl, cfg,
                                      self.emitted[cfg.name], tr)
            self.attempted += len(verdicts)
            for input_id, v in verdicts:
                if v.status == "FAIL":
                    self.fail("%s: %s fact FAILS after %d models; "
                              "counterexample %s"
                              % (input_id, cfg.name, v.checked,
                                 oracle.describe_model(v.counterexample)))
            self.verdicts.setdefault(cfg.name, verdicts)
        f = self.scale(before)
        if cfg.name + "." + stage in self.wl.unscaled:
            f = 1.0
        self.samples[(stage, cfg.name, traced)].append(total * f)
        self.raw[(stage, cfg.name, traced)].append(total)
        if tr is not None:
            for name in tr.seconds:
                tr.seconds[name] *= f
            self.tracers[(stage, cfg.name)].append(tr)

    def measure(self, seconds: float, traced: bool, repeats: dict,
                probe=None):
        """Run whole rounds for about ``seconds``, at least one round.

        A round runs every unit the same number of times: repeats maps
        "<cfg>.<stage>" to its runs per round (default 1), and a unit's
        runs are spread evenly over the round, so that they meet the
        host conditions of the whole round. Each unit's first run in a
        round comes in the listed order, translate first. A new round
        starts only if a round of the mean length so far still fits. So
        the round count depends on how fast the units are, but the
        median of a unit's runs does not depend on how many there are.
        probe is a set-up measurement returning seconds; it runs once at
        the start of each round.
        """
        variants = (True, False) if traced else (False,)
        units = [((stage, cfg, v), repeats.get(cfg.name + "." + stage, 1))
                 for stage in ("translate", "certify") for cfg in CONFIGS
                 for v in variants]
        order = [key for _, _, key in sorted(
            (i / n, j, key) for j, (key, n) in enumerate(units)
            for i in range(n))]
        began = time.perf_counter()
        while not self.round_s or (
                time.perf_counter() - began + statistics.mean(self.round_s)
                <= seconds):
            t0 = time.perf_counter()
            if probe is not None:
                self.setups.append(probe())
            for key in order:
                self.unit(*key)
            self.round_s.append(time.perf_counter() - t0)

    def end_to_end(self) -> dict:
        m = {}
        for cfg in CONFIGS:
            c = cfg.name
            facts = [f for em in self.emitted[c].values() for f in em.facts]
            m[c + ".translate_s"] = _median(self.samples, "translate", c)
            m[c + ".certify_s"] = _median(self.samples, "certify", c)
            m[c + ".fact_ops"] = sum(terms.fa_op_count(f.lhs)
                                     + terms.fa_op_count(f.rhs)
                                     for f in facts)
            m[c + ".fact_width"] = max((f.width for f in facts), default=0)
        m["setup_s"] = statistics.median(self.setups)
        m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0)
        m["ok_frac"] = 1.0 - self.failed / max(self.attempted, 1)
        return m

    def per_layer(self) -> dict:
        tracers = self.tracers
        paths = tracers[("translate", "mech")] + tracers[("translate",
                                                         "short")]

        def span(trs, name):
            return statistics.median(t.seconds[name] for t in trs)

        first = paths[0].counts
        m = {
            "frontend.parse_s": span(paths, "frontend.parse"),
            "frontend.desugar_s": span(paths, "frontend.desugar"),
            "frontend.tokens": first["frontend.tokens"],
            "decls.s": span(paths, "decls"),
            "decls.facts": first["decls.facts"],
            "expand.s": span(paths, "expand"),
            "expand.rl_nodes": first["expand.rl_nodes"],
            "expand.nesting": first["expand.nesting"],
            "terms.emit_s": span(paths, "terms.emit"),
        }
        for cfg in CONFIGS:
            c = cfg.name
            trs = tracers[("translate", c)]
            counts = trs[0].counts
            rewrite = span(trs, c + ".rewrite")
            m[c + ".rewrite_s"] = rewrite
            m[c + ".steps"] = counts["steps"]
            m[c + ".us_per_step"] = 1e6 * rewrite / max(counts["steps"], 1)
            for bank, _ in cfg.banks:
                m["%s.fires.%s" % (c, bank)] = counts["fires." + bank]
            certs = tracers[("certify", c)]
            verdicts = [v for _, v in self.verdicts[c]]
            models = sum(v.checked for v in verdicts)
            o = "oracle.%s." % c
            m[o + "space_s"] = span(certs, "oracle.space")
            m[o + "carrier"] = certs[0].counts["carrier"]
            m[o + "models"] = models
            m[o + "ms_per_model"] = (1e3 * span(certs, "oracle.check")
                                     / max(models, 1))
            m[o + "sampled_frac"] = (sum(v.status == "SAMPLED"
                                         for v in verdicts)
                                     / max(len(verdicts), 1))
            for stage in ("translate", "certify"):
                m["trace.%s.%s_overhead_s" % (c, stage)] = (
                    _median(self.samples, stage, c, True)
                    - _median(self.samples, stage, c))
        short = tracers[("translate", "short")][0].counts
        m["short.drop_vars_frac"] = short["drop_vars"] / max(short["jobs"],
                                                             1)
        return m


def _median(samples, stage, cfg, traced=False) -> float:
    """Median seconds of a unit's runs."""
    return statistics.median(samples[(stage, cfg, traced)])


_TABLE = {("k%d" % i, i % 5): i for i in range(2000)}
_KEYS = list(_TABLE)


def reference() -> float:
    """Seconds of a fixed pure-Python job that uses nothing of alloy2fa:
    50 passes of dict lookups on tuple keys, with the collector off. Of
    the jobs tried (arithmetic, recursive calls, object methods, tree
    building), a neighbour on the host slowed this one most nearly as
    much as it slowed the translators."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for _ in range(50):
            for key in _KEYS:
                total += _TABLE[key] + len(key[0])
        return time.perf_counter() - t0
    finally:
        gc.enable()


def setup_probe(args) -> float:
    """Seconds from starting a fresh worker to its ready line."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed",
           str(args.seed), "--root", args.root, "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    proc, setup = run.start_ready(cmd)
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise run.BenchError("set-up probe exited %d" % proc.returncode)
    return setup


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", default=".")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = corpus.build(args.workload, args.seed, args.root, tiny=args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    r = Run(wl)
    r.measure(args.seconds, bool(args.trace), wl.repeats,
              None if args.trace else (lambda: setup_probe(args)))
    metrics = r.per_layer() if args.trace else r.end_to_end()
    verdicts = {c: dict(Counter(v.status for _, v in vs))
                for c, vs in r.verdicts.items()}
    print(json.dumps({
        "metrics": metrics,
        "attempted": r.attempted,
        "failed": r.failed,
        "failures": r.failures,
        "digests": r.digests,
        "recorded_digests": wl.digests,
        "verdicts": verdicts,
        "setups": r.setups,
        "round_s": r.round_s,
        "reference_s": r.reference_s,
        "reference_at_full_speed_s": REFERENCE_S,
        "raw_medians": {"%s.%s_s" % (c, stage): _median(r.raw, stage, c)
                        for stage in ("translate", "certify")
                        for c in (cfg.name for cfg in CONFIGS)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
