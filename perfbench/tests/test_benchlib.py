"""Unit tests for the benchmark's pure logic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import shutil
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.dont_write_bytecode = True

from benchlib import ckpt, metrics, oracle, stats  # noqa: E402


class Stats(unittest.TestCase):
    def test_percentile_interpolates_between_order_statistics(self):
        v = list(range(1, 101))
        self.assertEqual(stats.percentile(v, 0), 1)
        self.assertEqual(stats.percentile(v, 100), 100)
        self.assertAlmostEqual(stats.percentile(v, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(v, 95), 95.05)
        self.assertAlmostEqual(stats.percentile(list(reversed(v)), 95), 95.05)
        self.assertEqual(stats.percentile([7.0], 95), 7.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_quartiles_are_the_statistics_module_quartiles(self):
        v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        self.assertEqual(stats.quartiles(v), tuple(statistics.quantiles(v, n=4)))
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_spread_is_iqr_over_median(self):
        v = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        self.assertAlmostEqual(stats.spread(v), (q3 - q1) / q2)
        self.assertEqual(stats.spread([5.0] * 4), 0.0)
        self.assertEqual(stats.spread([0.0, 0.0, 0.0]), 0.0)


class Oracle(unittest.TestCase):
    TABLES = "== Chain census ==\n| Hybrid | 321 |\n\ninterception entities: 80\n"
    TSV = TABLES + ("loss accounting: ssl.log 10 lines -> 9 records (0 malformed); "
                    "x509.log 4 lines -> 3 records (0 malformed); 1 no-chain, 0 unresolvable\n")
    COLUMNAR = TABLES + ("loss accounting: colstore 9 ssl rows, 3 x509 rows; "
                         "1 no-chain, 0 unresolvable\n")

    def test_strips_only_the_loss_line(self):
        self.assertEqual(oracle.strip_loss_line(self.TSV), self.TABLES)
        self.assertEqual(oracle.strip_loss_line(self.TABLES), self.TABLES)

    def test_tsv_columnar_and_serve_tables_compare_equal(self):
        self.assertTrue(oracle.same_tables(self.TSV, self.COLUMNAR))
        self.assertTrue(oracle.same_tables(self.TSV, self.TABLES))

    def test_a_table_difference_still_fails(self):
        changed = self.COLUMNAR.replace("321", "320")
        self.assertFalse(oracle.same_tables(self.TSV, changed))

    def test_the_prefix_must_start_the_line(self):
        text = "note: loss accounting: kept\n"
        self.assertEqual(oracle.strip_loss_line(text), text)


class CheckpointLedger(unittest.TestCase):
    """A tiny checkpoint laid out the way `serve` commits generations."""

    def commit(self, root, gen, files, links=()):
        gen_dir = os.path.join(root, f"gen-{gen:06d}")
        os.makedirs(gen_dir)
        for name, size in files.items():
            with open(os.path.join(gen_dir, name), "wb") as f:
                f.write(b"x" * size)
        for name, source in links:
            os.link(source, os.path.join(gen_dir, name))
        manifest = json.dumps({"generation": gen}).encode()
        with open(os.path.join(gen_dir, ckpt.MANIFEST), "wb") as f:
            f.write(manifest)
        return gen_dir, len(manifest)

    def test_carried_chunks_count_once(self):
        with tempfile.TemporaryDirectory() as root:
            ledger = ckpt.WriteLedger()
            g1, m1 = self.commit(root, 1, {"chains.dat": 100, "certs-000001.dat": 40})
            self.assertEqual(ledger.scan(root), 140 + m1)
            carried = os.path.join(g1, "certs-000001.dat")
            g2, m2 = self.commit(root, 2, {"chains.dat": 120, "certs-000002.dat": 8},
                                 links=[("certs-000001.dat", carried)])
            self.assertEqual(os.stat(os.path.join(g2, "certs-000001.dat")).st_nlink, 2)
            self.assertEqual(ledger.scan(root), 128 + m2)
            self.assertEqual(ledger.scan(root), 0)
            self.assertEqual(ledger.bytes_written, 140 + m1 + 128 + m2)

    def test_two_commits_between_scans_count_each_file_once(self):
        with tempfile.TemporaryDirectory() as root:
            g1, m1 = self.commit(root, 1, {"chains.dat": 10, "certs-000001.dat": 30})
            _, m2 = self.commit(root, 2, {"chains.dat": 12},
                                links=[("certs-000001.dat", os.path.join(g1, "certs-000001.dat"))])
            self.assertEqual(ckpt.WriteLedger().scan(root), 40 + m1 + 12 + m2)

    def test_uncommitted_and_pruned_generations_add_nothing(self):
        with tempfile.TemporaryDirectory() as root:
            ledger = ckpt.WriteLedger()
            g1, _ = self.commit(root, 1, {"chains.dat": 10})
            ledger.scan(root)
            partial = os.path.join(root, "gen-000002")
            os.makedirs(partial)
            with open(os.path.join(partial, "chains.dat"), "wb") as f:
                f.write(b"y" * 11)
            self.assertEqual(ledger.scan(root), 0, "no manifest yet: not committed")
            pruned = {(st.st_dev, st.st_ino) for st in
                      (os.stat(os.path.join(g1, n)) for n in os.listdir(g1))}
            shutil.rmtree(g1)
            self.assertEqual(ledger.scan(root), 0, "pruning writes nothing")
            # A pruned file's inode may be handed to a later new file,
            # which must then count as written.
            self.assertFalse(pruned & ledger.seen)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_the_catalogue(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
        with open(path) as f:
            doc = json.load(f)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(metrics.WORKLOADS))
        e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]}
        self.assertEqual(e2e, {n: spec[:3] for n, spec in metrics.GATED.items()})
        per_layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
        self.assertEqual(per_layer, metrics.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
