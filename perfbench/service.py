"""``service_mix``: two closed-loop clients against ``repro serve``.

The server runs with its defaults (thread executor, one worker per CPU,
batching on) plus a scratch ``--store``; set-up warms it with one
``/v1/optimize`` per flavor x method.  Each client sends its next
request only after its previous answer arrived, walking one seeded
script of ``/v1/optimize``, ``/v1/pareto`` and ``/v1/evaluate`` bodies
with a small share of small-n ``/v1/montecarlo`` draws.  No body names
an engine.

About a third of the script repeats an earlier request exactly.  Each
repeat sits at least ``REPEAT_GAP`` positions after its original and
is sent only once the original has been answered, and the script holds
fewer distinct requests than the result cache holds entries, so every
repeat is a result-cache hit and no other request is -- whatever the
timing.  Per-request compute is milliseconds, so HTTP framing, the
batch window, the result cache and the store are a large share of each
request.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import threading
import time
import uuid
from dataclasses import dataclass

import common
from common import HostProbe, percentile, timing_summary, warm_probe

NAME = "service_mix"

CLIENTS = 2
#: Minimum distance between a request and its repeat, in positions.
REPEAT_GAP = 4 * CLIENTS
#: Result-cache capacity of ``repro serve``; the script (plus the
#: warm-up answers) stays below it so no entry is ever evicted.
CACHE_ENTRIES = 256
#: Requests per script; 1/3 repeats keeps distinct requests below the
#: cache capacity.  One script runs per server lifetime (a segment).
SCRIPT_REQUESTS = 240
SMOKE_REQUESTS = 24
#: Seconds of ``--seconds`` per segment: a segment takes 3-6 s (server
#: start plus load) on a 2-vCPU cloud VM.
SEGMENT_SECONDS = 2.5
#: Requests between two pauses of the load generator, in which the
#: host-speed probe samples a quiet host.
CHUNK = 40
PROBES_PER_PAUSE = 2

CAPACITIES = tuple(64 << i for i in range(11))          # 64 B .. 64 KB
FLAVORS = ("lvt", "hvt")
METHODS = ("M1", "M2")
#: Warm-up capacity: outside the script, so warm-up answers are never
#: script hits.
WARMUP_CAPACITY = 32
MC_SAMPLES = 16

#: Request mix, as shares of the whole script.
SHARE_SEARCH = 0.24      # distinct /v1/optimize + /v1/pareto
SHARE_MONTECARLO = 0.04  # distinct /v1/montecarlo


@dataclass
class Request:
    path: str
    body: dict
    #: Script position of the original this request repeats, or None.
    repeat_of: int = None

    @property
    def kind(self):
        return self.path.rsplit("/", 1)[-1]


def _evaluate_body(rng):
    """A valid explicit design for one capacity."""
    capacity_bits = rng.choice(CAPACITIES) * 8
    rows = [r for r in (2 << i for i in range(10))
            if capacity_bits % r == 0 and capacity_bits // r <= 1024]
    n_r = rng.choice(rows)
    return {"flavor": rng.choice(FLAVORS), "design": {
        "n_r": n_r, "n_c": capacity_bits // n_r,
        "n_pre": rng.randint(1, 50), "n_wr": rng.randint(1, 20),
        "v_ddc": rng.choice((0.55, 0.60, 0.64, 0.70)),
        "v_ssc": -0.01 * rng.randint(0, 24),
        "v_wl": rng.choice((0.49, 0.54, 0.55, 0.64)),
    }}


def make_script(seed, n_requests):
    """The seeded request script; asserts its own hit/miss arithmetic."""
    rng = random.Random(seed)
    n_repeats = n_requests // 3
    n_distinct = n_requests - n_repeats
    n_search = min(round(SHARE_SEARCH * n_requests),
                   2 * len(CAPACITIES) * len(FLAVORS) * len(METHODS))
    n_mc = max(1, round(SHARE_MONTECARLO * n_requests))
    searches = rng.sample([
        ("/v1/%s" % route, {"capacity_bytes": c, "flavor": f, "method": m})
        for route in ("optimize", "pareto") for c in CAPACITIES
        for f in FLAVORS for m in METHODS], n_search)
    distinct = [Request(path, body) for path, body in searches]
    distinct += [Request("/v1/montecarlo", {
        "n": MC_SAMPLES, "flavor": rng.choice(FLAVORS),
        "seed": rng.randrange(1 << 30)}) for _ in range(n_mc)]
    distinct += [Request("/v1/evaluate", _evaluate_body(rng))
                 for _ in range(n_distinct - len(distinct))]
    rng.shuffle(distinct)
    keys = {json.dumps([r.path, r.body], sort_keys=True) for r in distinct}
    if len(keys) != n_distinct:
        raise AssertionError("script drew duplicate distinct requests")
    if n_distinct + len(FLAVORS) * len(METHODS) >= CACHE_ENTRIES:
        raise AssertionError("script would overflow the result cache")
    # Interleave: a repeat slot takes a random original at least
    # REPEAT_GAP positions back; while none is that old, it takes a new
    # request and the repeat is owed to a later slot.
    slots = ["new"] * n_distinct + ["repeat"] * n_repeats
    rng.shuffle(slots)
    script, originals, owed = [], [], 0
    for slot in slots:
        owed += slot == "repeat"
        eligible = [i for i in originals if i <= len(script) - REPEAT_GAP]
        if owed and eligible and (slot == "repeat" or not distinct):
            source = rng.choice(eligible)
            script.append(Request(script[source].path,
                                  script[source].body, source))
            owed -= 1
        else:
            originals.append(len(script))
            script.append(distinct.pop())
    hits = sum(r.repeat_of is not None for r in script)
    if hits != n_repeats or len(script) != n_requests:
        raise AssertionError("script has %d repeats in %d requests"
                             % (hits, len(script)))
    return script


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------

def serve(params, tmp_dir):
    """Child side: ``repro serve`` with its defaults."""
    from repro.cli import main as cli_main

    return cli_main(["serve", "--port", "0", "--cache", params["cache"],
                     "--store", params["store"]])


_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class Server:
    """One ``repro serve`` child process, started and warmed up."""

    def __init__(self, tmp_dir, trace_out=None):
        from repro.service.client import ServiceClient

        tag = uuid.uuid4().hex[:8]
        params = {"cache": os.path.join(tmp_dir, "svc-cache-%s.json" % tag),
                  "store": os.path.join(tmp_dir, "svc-store-%s.db" % tag)}
        shutil.copyfile(common.TRACKED_CACHE, params["cache"])
        if trace_out:
            params["trace_out"] = trace_out
        self.proc = subprocess.Popen(
            common.child_command("serve", NAME, json.dumps(params)),
            env=common.child_env(tmp_dir), cwd=common.ROOT,
            stdout=subprocess.PIPE, text=True)
        self.port = None
        try:
            for line in self.proc.stdout:
                match = _LISTENING.search(line)
                if match:
                    self.port = int(match.group(1))
                    break
            if self.port is None:
                raise RuntimeError("server exited before listening")
            with ServiceClient(port=self.port, timeout=60) as client:
                for flavor in FLAVORS:
                    for method in METHODS:
                        client.optimize(WARMUP_CAPACITY, flavor=flavor,
                                        method=method)
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self):
        return common.process_peak_rss_mb(self.proc.pid)

    def stop(self):
        """TERM, drain, reap; returns the server's closing output."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            tail, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            tail, _ = self.proc.communicate()
        return tail


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------

def drive(port, script, probe):
    """Walk the script with ``CLIENTS`` closed-loop clients.

    Every ``CHUNK`` requests both clients finish their request in flight
    and the probe samples the quiet host.  Returns one ``(status,
    payload, sent, answered)`` per request and one ``(start, end)`` per
    chunk.
    """
    from repro.service.client import ServiceClient

    answers = [None] * len(script)
    answered = [threading.Event() for _ in script]
    chunks = []
    clients = [ServiceClient(port=port, timeout=60) for _ in range(CLIENTS)]

    def client_loop(client, positions, lock):
        while True:
            with lock:
                index = next(positions, None)
            if index is None:
                return
            request = script[index]
            if request.repeat_of is not None:
                answered[request.repeat_of].wait()
            sent = time.perf_counter()
            try:
                status, payload, _ = client.request(
                    "POST", request.path, request.body, check=False,
                    request_id="bench-%d" % index)
            except Exception as exc:   # a failed request, counted
                status, payload = None, {"error": repr(exc)}
            answers[index] = (status, payload, sent, time.perf_counter())
            answered[index].set()

    try:
        for lo in range(0, len(script), CHUNK):
            positions = iter(range(lo, min(lo + CHUNK, len(script))))
            lock = threading.Lock()
            threads = [threading.Thread(target=client_loop,
                                        args=(client, positions, lock),
                                        daemon=True)
                       for client in clients]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("load generator did not finish")
            chunks.append((start, time.perf_counter()))
            probe.sample(PROBES_PER_PAUSE)
    finally:
        for client in clients:
            client.close()
    return answers, chunks


def check_answers(script, answers):
    """Failed requests, and the cache-hit pattern check."""
    failed = [i for i, (status, _, _, _) in enumerate(answers)
              if status != 200]
    wrong_hits = [
        i for i, (status, payload, _, _) in enumerate(answers)
        if status == 200 and payload.get("meta", {}).get("cached")
        != (script[i].repeat_of is not None)]
    return failed, wrong_hits


def check_optimize_sample(tmp_dir, script, answers, sample=3):
    """The first ``sample`` distinct optimize answers equal in-process
    ``run_study`` answers, design and EDP exactly."""
    from repro.analysis.experiments import Session
    from repro.analysis.runner import run_study
    from repro.store import result_to_payload

    picks = [i for i, r in enumerate(script)
             if r.kind == "optimize" and r.repeat_of is None][:sample]
    if not picks:
        return True
    cache = os.path.join(tmp_dir, "check-cache-%s.json" % uuid.uuid4().hex)
    shutil.copyfile(common.TRACKED_CACHE, cache)
    session = Session.create(cache_path=cache, voltage_mode="paper")
    for index in picks:
        body = script[index].body
        key = (body["capacity_bytes"], body["flavor"], body["method"])
        result = run_study(session=session, capacities=key[:1],
                           flavors=key[1:2], methods=key[2:],
                           workers=1).sweep.results[key]
        answer = answers[index][1]
        if (answer.get("design") != result_to_payload(result)["design"]
                or answer.get("metrics", {}).get("edp")
                != result.metrics.edp):
            return False
    return True


# ---------------------------------------------------------------------------
# Orchestrator side
# ---------------------------------------------------------------------------

def segment_scripts(run):
    """One script per server lifetime, each seeded from the run's seed;
    every segment's server start is one ``setup_s`` sample."""
    if run.smoke:
        return [make_script(run.seed, SMOKE_REQUESTS)]
    segments = max(1, round(run.seconds / SEGMENT_SECONDS))
    return [make_script(run.seed * 1000 + k, SCRIPT_REQUESTS)
            for k in range(segments)]


def run_segment(tmp_dir, script, probe, trace_out=None):
    """Start a server (timed: one set-up sample), drive one script,
    stop it.  Returns the set-up seconds, answers, chunks, peak RSS and
    the server's closing output."""
    probe.sample(PROBES_PER_PAUSE)
    start = time.perf_counter()
    server = Server(tmp_dir, trace_out=trace_out)
    setup = time.perf_counter() - start
    try:
        probe.sample(PROBES_PER_PAUSE)
        answers, chunks = drive(server.port, script, probe)
        rss = server.peak_rss_mb()
    finally:
        tail = server.stop()
    return setup, answers, chunks, rss, tail


def measure(run):
    """Set-up samples are the segments' server starts; every time is
    divided by the host factor of all the run's probe samples."""
    scripts = segment_scripts(run)
    if run.trace:
        trace_segment(run, scripts[0])
        return
    probe = HostProbe()
    warm_probe(probe)
    setups, latencies, drained, by_kind, wall, rss = [], [], [], {}, 0.0, 0.0
    wrong_hits, all_answers = [], []
    for script in scripts:
        setup, answers, chunks, seg_rss, tail = run_segment(
            run.tmp_dir, script, probe)
        all_answers.append(answers)
        drained.append("drained;" in tail)
        wrong_hits += _account(run, script, answers)
        setups.append(setup)
        wall += sum(end - start for start, end in chunks)
        rss = max(rss, seg_rss)
        for request, (status, _, sent, done) in zip(script, answers):
            if status == 200:
                latencies.append(done - sent)
                kind = ("hit" if request.repeat_of is not None
                        else request.kind)
                by_kind.setdefault(kind, []).append(done - sent)
    run.add_checks([
        common.check("service.drained", all(drained),
                     "%d of %d servers drained on TERM"
                     % (sum(drained), len(drained))),
        _hit_check(scripts, wrong_hits)])
    factor = probe.factor()
    stats = timing_summary(latencies)
    p90 = percentile(latencies, 90)
    run.metric("setup_s", statistics.median(setups) / factor)
    run.metric("peak_rss_mb", rss)
    run.metric("task_s", wall / factor)
    run.metric("op_ms", stats["median"] / factor * 1e3)
    run.metric("op_p90_ms", p90 / factor * 1e3)
    run.workload_metric("latency_ms", stats["median"] / factor * 1e3, "ms")
    run.workload_metric("latency_p90_ms", p90 / factor * 1e3, "ms")
    run.workload_metric("requests_per_s", len(latencies) / wall * factor,
                     "1/s")
    run.note("setup samples [s]: %s raw" % " ".join(
        "%.3f" % s for s in setups))
    run.note("requests raw: %s; %d segments, load wall %.3f s; host "
             "factor %.3f" % (", ".join(
                 "%s %.2f ms" % (k, v * 1e3) if k != "n" else "n=%d" % v
                 for k, v in stats.items()), len(scripts), wall, factor))
    run.note("probe in pauses: %s" % probe.describe())
    run.note("raw median latency by class: %s" % ", ".join(
        "%s %.2f ms (n=%d)" % (k, statistics.median(v) * 1e3, len(v))
        for k, v in sorted(by_kind.items())))
    run.add_checks([common.check(
        "service.optimize_sample_equals_run_study",
        check_optimize_sample(run.tmp_dir, scripts[0], all_answers[0]),
        "design and EDP, first 3 distinct optimize answers")])


def trace_segment(run, script):
    """One segment untraced (the overhead reference), then traced."""
    import tracing

    path = tracing.trace_path(NAME)
    probe = HostProbe()
    warm_probe(probe)
    phases, wrong_hits = [], []
    for trace_out in (None, path):
        _, answers, chunks, _, _ = run_segment(run.tmp_dir, script, probe,
                                               trace_out)
        wrong_hits += _account(run, script, answers)
        phases.append(sum(end - start for start, end in chunks)
                      / probe.factor(chunks[0][0], chunks[-1][1]))
    sent = {"bench-%d" % i: answer[2] for i, answer in enumerate(answers)}
    run.layer_metrics.update(tracing.layer_metrics(
        tracing.load_spans(path), request_sent=sent))
    run.add_checks([_hit_check([script, script], wrong_hits)])
    run.set_overhead(phases[1], phases[0])


def _account(run, script, answers):
    """Count the script's requests and failures; returns the positions
    whose cache-hit flag disagrees with the script."""
    failed, wrong_hits = check_answers(script, answers)
    run.count_ops(len(script), len(failed))
    return wrong_hits


def _hit_check(scripts, wrong_hits):
    repeats = sum(r.repeat_of is not None for s in scripts for r in s)
    return common.check(
        "service.cache_hits_exactly_at_repeats", not wrong_hits,
        "%d repeats in %d scripts; mismatched positions: %s"
        % (repeats, len(scripts), wrong_hits[:10] or "none"))
