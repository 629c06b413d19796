"""alloy2fa: compile a core Alloy fragment to variable-free fork-algebra facts.

The pipeline parses a restricted Alloy model, expands its formulas into
relational logic (quantifiers plus tuple applications), eliminates the
variables by strategic rewriting, and emits the resulting facts as
fork-algebra terms (`terms.fact_text` renders them one per line).
Declaration facts come from the signatures and fields. A finite-model
oracle checks each translation against the source semantics on small
universes. No prover input format is written yet.
"""

__version__ = "0.1.0"
