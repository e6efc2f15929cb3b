"""Job-level benchmark for ``repro``; entry point ``jobbench/run.py``."""
