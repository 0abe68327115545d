"""Support code for the certchain benchmark (`perfbench/run.py`)."""
