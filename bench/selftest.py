"""Self-tests of the benchmark's own code.

    python3 bench/selftest.py

Checks the synthetic-network generator, that the tracer restores every
attribute it patched, the self-time arithmetic, and that BENCHMARK.json
names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import importlib
import json
import sys
import unittest
import unittest.mock
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import stealthgame as sg  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from synthnet import measurement_count, network_text  # noqa: E402
from tracer import (  # noqa: E402
    CLI_BINDINGS, OP_BINDINGS, PER_LAYER, SETUP_BINDINGS, Tracer, layer_metrics,
    self_times)


class GeneratorTest(unittest.TestCase):
    def test_measurement_counts(self):
        for n_bus, m in ((30, 74), (60, 149)):
            self.assertEqual(measurement_count(n_bus), m)
            H = sg.build_dc_jacobian(sg.parse_network(network_text(n_bus, 0))).H
            self.assertEqual(H.shape, (m, n_bus - 1))

    def test_valid_connected_and_round_trips(self):
        for n_bus in (30, 60):
            for seed in range(20):
                text = network_text(n_bus, seed)
                net = sg.parse_network(text)  # BusNetwork checks connectivity
                self.assertEqual(sg.serialize_network(net), text)
                pairs = {(b.from_bus, b.to_bus) for b in net.branches}
                self.assertEqual(len(pairs), (n_bus - 1) + n_bus // 2)
                self.assertTrue(all(5.0 <= b.susceptance <= 20.0 for b in net.branches))

    def test_seeded(self):
        self.assertEqual(network_text(30, 7), network_text(30, 7))
        self.assertNotEqual(network_text(30, 7), network_text(30, 8))


def _bound(bindings):
    return [(importlib.import_module(mod), attr) for mod, attr, _ in bindings]


class TracerTest(unittest.TestCase):
    def _model(self):
        return worker.build(Path(sg.bundled_case("ieee9")).read_text())

    def test_restore_puts_originals_back(self):
        bindings = SETUP_BINDINGS + OP_BINDINGS + CLI_BINDINGS
        originals = [getattr(owner, attr) for owner, attr in _bound(bindings)]
        model = self._model()
        with Tracer().install(bindings) as tracer:
            self.assertTrue(all(getattr(owner, attr) is not orig for (owner, attr), orig
                                in zip(_bound(bindings), originals)))
            v, _, _ = sg.run_brd(sg.GameSpec(2, 2.0), model)
            sg.error_curve(model, v, 1000, 0, [0.5, 1.0, 2.0])
        self.assertTrue(tracer.spans)
        for (owner, attr), orig in zip(_bound(bindings), originals):
            self.assertIs(getattr(owner, attr), orig, f"{owner.__name__}.{attr}")

    def test_restore_after_exception(self):
        owner, attr = _bound(OP_BINDINGS)[0]
        orig = getattr(owner, attr)
        with self.assertRaises(ValueError):
            with Tracer().install(OP_BINDINGS):
                sg.run_brd(sg.GameSpec(1, 2.0), self._model(), t_max=0)
        self.assertIs(getattr(owner, attr), orig)

    def test_traced_measurement_restores_and_untraced_never_wraps(self):
        bindings = OP_BINDINGS + SETUP_BINDINGS
        originals = [getattr(owner, attr) for owner, attr in _bound(bindings)]
        spans = run.WORK / "selftest-spans.json"
        run.WORK.mkdir(exist_ok=True)
        state = {"model": self._model(), "seed": 0}
        traced = worker.measure_traced("solve-m149", state, 0.0, spans)
        self.assertEqual(traced["failed"], 0)
        self.assertEqual(traced["layers"]["dynamics.run_brd.g3.calls"], 1)
        spans.unlink()
        for (owner, attr), orig in zip(_bound(bindings), originals):
            self.assertIs(getattr(owner, attr), orig, f"{owner.__name__}.{attr}")
        calls = []
        with unittest.mock.patch.object(Tracer, "install", side_effect=calls.append):
            worker.measure("solve-m149", state, 0.0)
        self.assertEqual(calls, [])

    def test_layer_metrics_of_a_solve(self):
        model = self._model()
        with Tracer().install(OP_BINDINGS) as tracer:
            _, trajectory, report = sg.run_brd(sg.GameSpec(1, 2.0), model)
        layers = layer_metrics(tracer.spans, 1, 0)
        updates = report.rounds_used * model.m
        self.assertEqual(layers["dynamics.run_brd.g1.calls"], 1)
        self.assertEqual(layers["dynamics.rounds"], report.rounds_used)
        self.assertEqual(layers["bestresponse.br_context.calls"], updates + model.m)
        self.assertEqual(layers["games.potential.calls"], len(trajectory))
        # The last round and verify_ne move nothing.
        self.assertLessEqual(layers["bestresponse.moved_share"],
                             (updates - model.m) / (updates + model.m))
        self.assertGreater(layers["dynamics.record_s"], 0.0)

    def test_self_time_counts_overlapping_children_once(self):
        spans = [[1, "root", 0.0, 10.0, None, None],
                 [2, "a", 1.0, 5.0, 1, None],
                 [3, "a", 3.0, 7.0, 1, None],  # overlaps span 2 (another thread)
                 [4, "b", 9.0, 12.0, 1, None]]  # runs past the root's end
        selfs = {s[0]: self_s for s, _, self_s in self_times(spans)}
        self.assertAlmostEqual(selfs[1], 10.0 - 6.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 4.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_match_the_code(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]], [n for n, _, _ in PER_LAYER])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
