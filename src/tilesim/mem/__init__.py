"""Caches, the directory MSI protocol, DRAM and the little-endian ports."""
