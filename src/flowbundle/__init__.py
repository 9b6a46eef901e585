"""Flow-aggregation features for detecting benign-mimicking attacks.

Pipeline stages: pcap parsing -> bidirectional flow assembly -> per-flow
statistics -> bundle aggregation (number of flows, source ports delta)
-> feature selection, classification and zero-day detection.
"""

__version__ = "0.1.0"
