"""Benchmark harness of the selflock package; see README.md here."""
