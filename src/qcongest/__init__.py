"""Round-accurate simulator of the (Quantum) Congested Clique and CONGEST
models, with clique and cycle detection built on nested distributed
quantum search, simulated at the cost-model level.

The package root exports nothing: import each module by name
(``from qcongest.cycledetect import detect_odd_cycle``)."""
