"""B*[g] sets, their extremal searches, and symmetric-subset bounds."""
