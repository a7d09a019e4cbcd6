"""The expression language: one pipeline, two evaluation modes.

Expressions like DEFUZ(NOT A AND FUZ(3, 1)) parse into a small tree that
can run classically (membership arithmetic, exact distributions) or on the
register simulator (gates, sampled measurements).  For superposition-free
expressions the two modes agree: quantum output marginals equal the
classical memberships.
"""

import numpy as np

from qfuzzy import (
    Environment,
    FuzzySet,
    eval_classical,
    eval_quantum,
    parse,
    pretty_print,
    value_marginals,
)

source = "DEFUZ(NOT A AND FUZ(3, 1))"
ast = parse(source)
print("source   :", source)
print("canonical:", pretty_print(ast))

# universe of 4: the plan counts 20 logical qubits (4 of them DEFUZ ancillas)
# against the default cap of 24; the set feeding the DEFUZ is a 16-qubit register
bindings = {"A": FuzzySet([0.9, 0.2, 0.4, 0.8])}

classical_env = Environment(universe_size=4, bindings=bindings)
exact = eval_classical(ast, classical_env)
print("\nexact center-of-mass distribution (classical mode):")
for index, p in exact.items():
    print(f"  {index}: {p:.4f}")

quantum_env = Environment(
    universe_size=4, bindings=bindings, mode="quantum", seed=42, trials=50_000
)
counts = eval_quantum(ast, quantum_env)
print("\nsampled counts over 50k trials (quantum mode):")
for index in sorted(counts):
    print(f"  {index}: {counts[index]}")

inner = parse("NOT A AND FUZ(3, 1)")
marginals = value_marginals(eval_quantum(inner, quantum_env))
memberships = eval_classical(inner, classical_env).memberships
print("\nmode agreement on the set feeding the defuzzifier:")
print("  quantum marginals :", np.round(marginals, 10))
print("  classical values  :", np.round(memberships, 10))
print("  max difference    :", float(np.max(np.abs(marginals - memberships))))
