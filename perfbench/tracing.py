"""Outside-in tracing of toruslab.

The tracer replaces public names that toruslab.cli and the layer modules
call with timing wrappers, and restores them afterwards, so the program
runs unchanged.  Each call becomes a span (name, start, end, parent span,
request); spans stay in memory and are written out once, at the end of a
run.  A metric's time is self time: the span's duration minus the
durations of the traced spans it contains.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter

# Counts the probes' ``sizes`` functions add to.
SIZE_METRICS = (
    "quasimode.multiplier_support",
    "quasimode.galerkin_dim",
    "quasimode.nullspace_dim",
    "trigpoly.convolve_terms",
    "wavefront.mass_evals",
)


def probes(cli, quasimode, wavefront, trigpoly):
    """(owner, attribute, span name, time metric, calls metric, sizes).

    ``sizes(args, result)`` returns exact problem-size counts of the call.
    The owner is the module or class whose attribute the caller looks up:
    cli imports most layer functions into its own namespace, so they are
    wrapped there; fit_decay_exponent is wrapped as wavefront calls it.
    """
    QuasimodeFamily = quasimode.QuasimodeFamily
    TrigPolynomial = trigpoly.TrigPolynomial
    return [
        (cli, "parse_config", "cli.parse_config", "cli.parse_s", None, None),
        (cli, "run_pipeline", "cli.run_pipeline", "cli.pipeline_self_s", None, None),
        (cli, "_write_csv", "cli._write_csv", "cli.csv_s", None, None),
        (cli, "write_report", "cli.write_report", "cli.report_json_s", None, None),
        (cli, "relation_lattice", "exact.relation_lattice", "exact.split_s", "exact.calls", None),
        (cli, "split_frequencies", "exact.split_frequencies", "exact.split_s", "exact.calls", None),
        (cli, "find_resonant_mode", "exact.find_resonant_mode", "exact.split_s", "exact.calls", None),
        (cli, "bordered_determinant", "nondegeneracy.bordered_determinant", "nondegeneracy.s", None, None),
        (cli, "is_quasiconvex", "nondegeneracy.is_quasiconvex", "nondegeneracy.s", None, None),
        (
            cli, "build_factory_quasimode", "quasimode.build_factory_quasimode",
            "quasimode.build_s", None,
            lambda args, out: {"quasimode.multiplier_support": len(out[0].r)},
        ),
        (QuasimodeFamily, "save", "quasimode.QuasimodeFamily.save", "quasimode.family_save_s", None, None),
        (cli, "verify_quasimode_order", "quasimode.verify_quasimode_order", "quasimode.order_s", None, None),
        (quasimode, "apply_model_operator", "operator.apply_model_operator", "operator.apply_s", "operator.apply_calls", None),
        (cli, "check_mode_concentration", "quasimode.check_mode_concentration", "quasimode.concentration_s", None, None),
        (cli, "decompose_along_T", "quasimode.decompose_along_T", "quasimode.decompose_s", None, None),
        (quasimode, "decompose_along_T", "quasimode.decompose_along_T", "quasimode.decompose_s", None, None),
        (
            cli, "galerkin_nullspace", "quasimode.galerkin_nullspace", "quasimode.galerkin_s", None,
            lambda args, out: {
                "quasimode.galerkin_dim": len(out.frequencies),
                "quasimode.nullspace_dim": len(out.basis),
            },
        ),
        (cli, "unique_continuation_constant", "quasimode.unique_continuation_constant", "quasimode.uc_s", None, None),
        (
            TrigPolynomial, "convolve", "trigpoly.TrigPolynomial.convolve",
            "trigpoly.convolve_s", "trigpoly.convolve_calls",
            lambda args, out: {"trigpoly.convolve_terms": len(args[0]) * len(args[1])},
        ),
        (
            cli, "wavefront_mass_map", "wavefront.wavefront_mass_map", "wavefront.massmap_s", None,
            lambda args, out: {"wavefront.mass_evals": int(out.masses.size)},
        ),
        (cli, "nonconcentration_report", "wavefront.nonconcentration_report", "wavefront.verdicts_s", None, None),
        (wavefront, "fit_decay_exponent", "quasimode.fit_decay_exponent", "quasimode.fit_s", "quasimode.fit_calls", None),
    ]


class Tracer:
    """Span recorder for one benchmark run.

    ``install`` wraps every probe and ``remove`` restores the originals.
    ``take_totals`` returns the per-metric totals since its last call: self
    seconds for time metrics, integers for call and size counts.  Every
    metric a probe names appears, so a layer that did no work reads 0.
    """

    def __init__(self, probe_list):
        self._probes = probe_list
        self._originals = []
        self._open = []  # [span index, seconds spent in traced children]
        self.request = -1
        self.span_names: list[str] = []
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._request = array("i")
        self._seconds = {p[3]: 0.0 for p in probe_list}
        self._counts = {p[4]: 0 for p in probe_list if p[4]}
        self._counts.update({key: 0 for key in SIZE_METRICS})
        self.time_metrics = frozenset(self._seconds)

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, span, time_key, calls_key, sizes in self._probes:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, time_key, calls_key, sizes))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def take_totals(self) -> dict:
        out = {**self._seconds, **self._counts}
        self._seconds = dict.fromkeys(self._seconds, 0.0)
        self._counts = dict.fromkeys(self._counts, 0)
        return out

    def _wrap(self, fn, span, time_key, calls_key, sizes):
        if span not in self.span_names:
            self.span_names.append(span)
        name_id = self.span_names.index(span)
        open_spans = self._open

        def traced(*args, **kwargs):
            index = len(self._start)
            parent = open_spans[-1][0] if open_spans else -1
            frame = [index, 0.0]
            open_spans.append(frame)
            self._name.append(name_id)
            self._parent.append(parent)
            self._request.append(self.request)
            self._end.append(0.0)
            start = perf_counter()
            self._start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                duration = end - start
                self._end[index] = end
                self._seconds[time_key] += duration - frame[1]
                if open_spans:
                    open_spans[-1][1] += duration
                if calls_key:
                    self._counts[calls_key] += 1
            if sizes is not None:
                for key, value in sizes(args, result).items():
                    self._counts[key] += value
            return result

        return traced

    def write(self, path: Path, origin: float) -> None:
        """Write every span as JSON, one span per line, with times in
        microseconds from ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.span_names, "columns": ["name", "start_us", "end_us", "parent", "request"]}
        spans = zip(self._name, self._start, self._end, self._parent, self._request)
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header)[:-1] + ', "spans": [')
            for i, (name, start, end, parent, request) in enumerate(spans):
                us = (round((start - origin) * 1e6), round((end - origin) * 1e6))
                f.write(f"{',' if i else ''}\n[{name},{us[0]},{us[1]},{parent},{request}]")
            f.write("\n]}\n")
