"""Span tracing for the traced benchmark run.

`Tracer.install` wraps the public functions of every crossres layer by
rebinding module attributes. A function imported by name into another
module (``distill`` imports ``bilinear_upsample``, ``evalsuite`` imports
``infer`` and ``euler_sample``) is rebound there too, because every
``crossres.*`` module attribute that is the original function object gets
the wrapper. Spans are kept in memory, one column per field (name, start,
end, parent span, request id, attrs), and turned into per-layer metrics by
`layer_metrics`.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("net", "grid", "schedule", "cascade", "distill", "diffusion", "evalsuite", "data", "cli")
CLI_COMMANDS = ("gen-data", "train-teacher", "distill", "sample", "eval")


def _conv_flop(net, x) -> int:
    """Multiply-adds of the 3x3 convolutions of one forward, counted as 2 flop."""
    ch = net.spec.channels
    hw = int(np.shape(x)[-1]) * int(np.shape(x)[-2])
    return sum(2 * 9 * a * b * hw for a, b in zip(ch, ch[1:]))


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _adamw_attrs(args, out) -> dict:
    opt, grads = args[0], args[2]
    finite = bool(np.all(np.isfinite(grads)))
    clipped = finite and float(np.linalg.norm(grads)) > opt.clip_norm > 0
    return {"clipped": int(clipped), "skipped": int(not out[1])}


# (module, attribute or Class.method, span name, attrs(args, result) -> dict | None)
TARGETS = [
    ("crossres.net", "forward", "net.forward",
     lambda a, o: {"px": int(np.shape(a[1])[-1]), "flop": _conv_flop(a[0], a[1])}),
    # backward re-runs the forward, then computes weight and input gradients
    ("crossres.net", "backward", "net.backward", lambda a, o: {"flop": 3 * _conv_flop(a[0], a[1])}),
    ("crossres.net", "AdamW.step", "net.adamw", _adamw_attrs),
    ("crossres.net", "save_checkpoint", "net.checkpoint", lambda a, o: _file_bytes(a[0])),
    ("crossres.net", "load_checkpoint", "net.checkpoint", lambda a, o: _file_bytes(a[0])),
    ("crossres.grid", "bilinear_upsample", "grid.upsample", None),
    ("crossres.grid", "bilinear_upsample_t", "grid.upsample_t", None),
    ("crossres.grid", "SeededRng.normal", "grid.normal", lambda a, o: {"draws": int(o.size)}),
    ("crossres.schedule", "inference_schedule", "schedule.inference_schedule", None),
    ("crossres.cascade", "run_cascade", "cascade.run",
     lambda a, o: {"steps": len(o.trace.records), "transitions": o.trace.transitions()}),
    ("crossres.cascade", "infer", "cascade.infer", None),
    ("crossres.distill", "train", "distill.train", None),
    ("crossres.distill", "train_step", "distill.train_step", lambda a, o: {"phase": o.phase}),
    ("crossres.distill", "generate_cascade_states", "distill.cascade", None),
    ("crossres.distill", "select_state_index", "distill.select",
     lambda a, o: {"selected": int(o), "tape": len(a[0].tape)}),
    ("crossres.distill", "upsample_transform", "distill.project", None),
    ("crossres.distill", "fake_score_loss", "distill.fake", None),
    ("crossres.distill", "generator_loss", "distill.gen_loss", None),
    ("crossres.distill", "backward_transform", "distill.gen_backward", None),
    ("crossres.distill", "cascade_chain_backward", "distill.gen_backward", None),
    ("crossres.diffusion", "train_teacher", "diffusion.train_teacher", None),
    ("crossres.diffusion", "teacher_loss", "diffusion.teacher_loss", None),
    ("crossres.diffusion", "euler_sample", "diffusion.euler_sample", None),
    ("crossres.evalsuite", "evaluate_run", "evalsuite.evaluate_run", None),
    ("crossres.evalsuite", "evaluate_sets", "evalsuite.evaluate_sets", None),
    ("crossres.evalsuite", "sample_cascade_set", "evalsuite.sample_cascade_set", None),
    ("crossres.evalsuite", "sample_teacher_set", "evalsuite.sample_teacher_set", None),
    ("crossres.evalsuite", "mmd_rbf", "evalsuite.mmd", None),
    ("crossres.evalsuite", "permutation_null", "evalsuite.permutation_null", None),
    ("crossres.evalsuite", "summary_stats", "evalsuite.summary_stats", None),
    ("crossres.data", "generate_samples", "data.generate", None),
    ("crossres.data", "gen_dataset", "data.write", lambda a, o: _file_bytes(a[2])),
    ("crossres.data", "load_dataset", "data.load", lambda a, o: _file_bytes(a[0])),
    # one span per CLI command, named after its subcommand
    ("crossres.cli", "main", lambda a: f"cli.{a[0][0]}", None),
]
# Called thousands of times per second; counted without a span.
COUNTED = [("crossres.grid", "SeededRng.derive", "grid.derive.calls")]


class Tracer:
    """In-memory span recorder; `request` tags every span opened while set."""

    def __init__(self):
        # Parallel columns of atoms rather than one list per span: the garbage
        # collector then tracks a handful of lists, not one per span, and its
        # full passes stay cheap as the trace grows.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list = []
        self.attrs: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[tuple]:
        """(name, start, end, parent index, request id, attrs) per span."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.requests, self.attrs))

    def _span(self, fn, name, attrs):
        names, starts, ends, parents, requests, attrs_col = (
            self.names, self.starts, self.ends, self.parents, self.requests, self.attrs)
        stack, perf = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name(args) if callable(name) else name)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            attrs_col.append(None)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
            if attrs is not None:
                attrs_col[i] = attrs(args, out)
            return out

        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, module_name, attr, make):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(module, attr)
        wrapper = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "crossres":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for module_name, attr, name, attrs in TARGETS:
            self._rebind(module_name, attr, lambda fn, n=name, a=attrs: self._span(fn, n, a))
        for module_name, attr, key in COUNTED:
            self._rebind(module_name, attr, lambda fn, k=key: self._counter(fn, k))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def absorb(self, spans: list, counts: dict[str, int]) -> None:
        """Append the spans and counts a child process recorded."""
        offset = len(self.names)
        for name, start, end, parent, request, attrs in spans:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent + offset if parent >= 0 else -1)
            self.requests.append(request)
            self.attrs.append(attrs)
        for key, value in counts.items():
            self.counts[key] += value

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, request, attrs in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                    "request": request, "attrs": attrs}) + "\n")


def layer_metrics(spans: list[tuple], counts: dict[str, int], wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run of `wall_s` seconds."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    layer = [s[0].split(".")[0] for s in spans]
    # layers open above each span; a span inside its own layer adds no busy time
    above: list[frozenset] = [frozenset()] * n
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            child[p] += dur[i]
            above[i] = above[p] | {layer[p]}
    self_s = [d - c for d, c in zip(dur, child)]

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    attr_sum: dict[str, int] = defaultdict(int)
    busy = dict.fromkeys(LAYERS, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    uncovered = wall_s
    for i, (name, _, _, parent, _, attrs) in enumerate(spans):
        calls[name] += 1
        total[name] += dur[i]
        own[name] += self_s[i]
        if attrs:
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    attr_sum[f"{name}.{key}"] += value
        L = layer[i]
        layer_calls[L] += 1
        layer_self[L] += self_s[i]
        if L not in above[i]:
            busy[L] += dur[i]
        if parent < 0:
            uncovered -= dur[i]

    m: dict[str, float] = {}
    fwd_px = defaultdict(float)
    for i, s in enumerate(spans):
        if s[0] == "net.forward" and s[5]:
            fwd_px[s[5]["px"]] += dur[i]
    fwd_gflop = attr_sum["net.forward.flop"] / 1e9
    m.update({
        "net.forward.calls": calls["net.forward"],
        "net.forward.s": total["net.forward"],
        "net.forward.8px.s": fwd_px[8],
        "net.forward.16px.s": fwd_px[16],
        "net.forward.gflop": fwd_gflop,
        "net.forward.gflop_per_s": fwd_gflop / total["net.forward"] if total["net.forward"] else 0.0,
        "net.backward.calls": calls["net.backward"],
        "net.backward.s": total["net.backward"],
        "net.backward.gflop": attr_sum["net.backward.flop"] / 1e9,
        "net.adamw.calls": calls["net.adamw"],
        "net.adamw.s": total["net.adamw"],
        "net.adamw.clipped": attr_sum["net.adamw.clipped"],
        "net.adamw.skipped": attr_sum["net.adamw.skipped"],
        "net.checkpoint.bytes": attr_sum["net.checkpoint.bytes"],
        "net.checkpoint.s": total["net.checkpoint"],
        "grid.upsample.calls": calls["grid.upsample"],
        "grid.upsample.s": total["grid.upsample"],
        "grid.upsample_t.calls": calls["grid.upsample_t"],
        "grid.upsample_t.s": total["grid.upsample_t"],
        "grid.normal.draws": attr_sum["grid.normal.draws"],
        "grid.normal.s": total["grid.normal"],
        "grid.derive.calls": counts.get("grid.derive.calls", 0),
        "schedule.inference_schedule.calls": calls["schedule.inference_schedule"],
        "schedule.inference_schedule.s": total["schedule.inference_schedule"],
        "cascade.run.calls": calls["cascade.run"],
        "cascade.run.self_s": own["cascade.run"],
        "cascade.steps": attr_sum["cascade.run.steps"],
        "cascade.transitions": attr_sum["cascade.run.transitions"],
        "distill.cascade.s": total["distill.cascade"],
        "distill.project.s": total["distill.project"],
        "distill.fake.s": total["distill.fake"],
        "distill.gen_loss.s": total["distill.gen_loss"],
        "distill.gen_backward.s": total["distill.gen_backward"],
        "distill.opt.s": sum(dur[i] for i, s in enumerate(spans)
                             if s[0] == "net.adamw" and s[3] >= 0
                             and spans[s[3]][0] == "distill.train_step"),
    })
    # Useful forwards: recorded cascade states before the selected one, whose
    # forward feeds the chain backward; the rest of the tape goes unused.
    sel = {"warmup": 0, "full": 0}
    tape = {"warmup": 0, "full": 0}
    for s in spans:
        if s[0] == "distill.select" and s[3] >= 0 and spans[s[3]][5]:
            phase = spans[s[3]][5]["phase"]
            sel[phase] += s[5]["selected"]
            tape[phase] += s[5]["tape"]
    m["distill.useful_forwards"] = sel["warmup"] + sel["full"]
    m["distill.cascade_forwards"] = tape["warmup"] + tape["full"]
    m["distill.useful_forward_ratio"] = _ratio(m["distill.useful_forwards"], m["distill.cascade_forwards"])
    m["distill.useful_forward_ratio.warmup"] = _ratio(sel["warmup"], tape["warmup"])
    m["distill.useful_forward_ratio.full"] = _ratio(sel["full"], tape["full"])
    m.update({
        "diffusion.teacher_loss.calls": calls["diffusion.teacher_loss"],
        "diffusion.teacher_loss.s": total["diffusion.teacher_loss"],
        "diffusion.euler_sample.calls": calls["diffusion.euler_sample"],
        "diffusion.euler_sample.s": total["diffusion.euler_sample"],
        "evalsuite.sample_cascade_set.s": total["evalsuite.sample_cascade_set"],
        "evalsuite.sample_teacher_set.s": total["evalsuite.sample_teacher_set"],
        "evalsuite.mmd.calls": calls["evalsuite.mmd"],
        "evalsuite.mmd.s": total["evalsuite.mmd"],
        "evalsuite.permutation_null.s": total["evalsuite.permutation_null"],
        "evalsuite.summary_stats.s": total["evalsuite.summary_stats"],
        "data.generate.s": total["data.generate"],
        "data.write.bytes": attr_sum["data.write.bytes"],
        "data.write.s": own["data.write"],
        "data.load.bytes": attr_sum["data.load.bytes"],
        "data.load.s": total["data.load"],
    })
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = total[f"cli.{cmd}"]
        m[f"cli.{cmd}.self_s"] = own[f"cli.{cmd}"]
    for L in LAYERS:
        m[f"{L}.calls"] = layer_calls[L]
        m[f"{L}.busy_s"] = busy[L]
        m[f"{L}.self_s"] = layer_self[L]
        m[f"{L}.self_share"] = layer_self[L] / wall_s
    m["trace.spans"] = n
    m["trace.wall_s"] = wall_s
    m["trace.uncovered_share"] = uncovered / wall_s
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
