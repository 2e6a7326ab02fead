"""BM25 retrieval-augmented QA with an LLM keyword-refinement loop."""
