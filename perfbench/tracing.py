"""In-memory span recorder patched around revsense functions.

The recorder wraps each function of TARGETS and rebinds the wrapper in
every loaded revsense module namespace that binds the original, so calls
that go through another module (harness -> bwt -> suffixes) nest as child
spans.  Nothing is written to the library on disk, and `uninstall` puts
the originals back.  A target the library no longer has is skipped and
reports zero calls.
"""

from __future__ import annotations

import functools
import resource
import sys
from collections import Counter, defaultdict
from time import perf_counter

TARGETS = (
    ("suffixes", "build_suffix_context"),
    ("suffixes", "cyclic_rotation_order"),
    ("bwt", "bwt"),
    ("bwt", "bwt_sentinel"),
    ("bwt", "bbwt"),
    ("text", "reverse"),
    ("text", "lyndon_factorize"),
    ("text", "rle"),
    ("lz", "lz_parse"),
    ("lz", "lz_no_overlap"),
    ("lz", "lz_end_greedy"),
    ("lz", "lz_end_optimal"),
    ("lexparse", "lex_parse"),
    ("measures", "substring_complexity"),
    ("measures", "right_extension_count"),
    ("families", "generate"),
    ("families", "predictions"),
    ("families", "transform_predictions"),
    ("harness", "sensitivity_report"),
    ("harness", "sweep"),
    ("harness", "verify"),
    ("harness", "rows_to_csv"),
    ("cli", "main"),
)
RSS_TRACKED = ("bwt.bbwt", "measures.right_extension_count")
MATCHER = "lz.SuffixMatcher"
ZEND = "lz.lz_end_optimal"
LZ_ENTRIES = ("lz.lz_parse", "lz.lz_no_overlap", "lz.lz_end_greedy", ZEND)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    m for mod, fn in TARGETS
    for m in ((f"{mod}.{fn}.calls", "count", "lower"), (f"{mod}.{fn}.self_s", "s", "lower"))
] + [
    (f"{MATCHER}.builds", "count", "lower"),
    (f"{MATCHER}.self_s", "s", "lower"),
    (f"{MATCHER}.builds_per_text", "ratio", "lower"),
    ("lz.match_lengths.calls", "count", "lower"),
    (f"{ZEND}.inexact", "count", "lower"),
    (f"{ZEND}.shortcut_ratio", "ratio", "higher"),
] + [(f"{name}.rss_delta_mb", "MB", "lower") for name in RSS_TRACKED] + [
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans as [name, start, end, parent index, request id], in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.match_lengths_calls = 0
        self.zend_inexact = 0
        self.zend_shortcuts = 0
        self.rss_delta_kb: Counter = Counter()
        # texts handed to an LZ parser, per request; held so ids stay unique
        self._lz_texts: dict[tuple, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        track_rss = name in RSS_TRACKED
        is_zend = name == ZEND
        lz_texts = self._lz_texts if name in LZ_ENTRIES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            if lz_texts is not None and args:
                lz_texts.setdefault((self.request, id(args[0])), args[0])
            rss0 = _maxrss_kb() if track_rss else 0
            calls0 = self.match_lengths_calls
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if track_rss:
                self.rss_delta_kb[name] += _maxrss_kb() - rss0
            if is_zend:
                self.zend_inexact += not result[1]
                self.zend_shortcuts += self.match_lengths_calls == calls0
            return result

        return traced

    def _count_match_lengths(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.match_lengths_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "revsense" and not mod_name.startswith("revsense."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules.get(f"revsense.{mod_name}"), fn_name, None)
            if original is not None:
                self._rebind(original, self._wrap(f"{mod_name}.{fn_name}", original))
        lz = sys.modules.get("revsense.lz")
        matcher = getattr(lz, "_SuffixMatcher", None)
        if matcher is not None:
            init = matcher.__dict__["__init__"]
            matcher.__init__ = self._wrap(MATCHER, init)
            self._patches.append((matcher, "__init__", init))
        match_lengths = getattr(lz, "_match_lengths", None)
        if match_lengths is not None:
            self._rebind(match_lengths, self._count_match_lengths(match_lengths))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per-name self seconds and calls, and the summed top-level span time.

        A span's self time is its duration minus the durations of its
        direct children; children lie inside their parent, so the self
        times of all spans add up to the top-level total.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        top = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_s[i]
            calls[name] += 1
            if parent < 0:
                top += end - start
        return self_s, calls, top

    def layer_metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Every PER_LAYER metric for a traced pass of `traced_s` seconds
        whose untraced twin took `untraced_s`."""
        self_s, calls, top = self.self_times()
        out: dict[str, float] = {}
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out[f"{MATCHER}.builds"] = calls[MATCHER]
        out[f"{MATCHER}.self_s"] = self_s[MATCHER]
        texts = len(self._lz_texts)      # the ideal is one build per such text
        out[f"{MATCHER}.builds_per_text"] = calls[MATCHER] / texts if texts else 0.0
        out["lz.match_lengths.calls"] = self.match_lengths_calls
        out[f"{ZEND}.inexact"] = self.zend_inexact
        out[f"{ZEND}.shortcut_ratio"] = self.zend_shortcuts / calls[ZEND] if calls[ZEND] else 0.0
        for name in RSS_TRACKED:
            out[f"{name}.rss_delta_mb"] = self.rss_delta_kb[name] / 1024
        out["trace.unattributed_s"] = traced_s - top
        out["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s > 0 else 0.0
        return out
