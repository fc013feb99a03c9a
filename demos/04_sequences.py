"""Integer sequences from the determinant formulas, verified by brute force.

The inward binding (a = n^2, the rest -1) reproduces the determinants of the
classical inward-winding integer spirals; the outward binding (all ones)
those of the outward-winding ones.  Every term is cross-checked against a
fraction-free determinant of the actual specialized matrix.
"""

from spiraldet import SequenceId, sequence_csv, term, verify_sequence
from spiraldet.sequences import q_series_string

for sid in (SequenceId.INWARD, SequenceId.OUTWARD):
    report = verify_sequence(sid, 10)
    terms = [term(sid, n) for n in range(1, 11)]
    print(f"{sid.value:<8} n=1..10: {terms}")
    print(f"{'':8} verified against brute force: {report.failures} failures")

print("\nCSV emission for the inward family:")
print(sequence_csv(SequenceId.INWARD, 6))

print("q-power terms stay symbolic in q:")
for n in range(1, 5):
    print(f"    n={n}: {q_series_string(term(SequenceId.QSPIRAL, n))}")
