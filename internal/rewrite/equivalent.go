package rewrite

import "qav/internal/tpq"

// EquivalentRewriting decides the classical query-optimization
// formulation of QAV that the paper contrasts with contained rewriting
// (§1, §6; studied by Xu & Özsoyoglu, the paper's [26]): is there a
// compensation E with E ∘ V ≡ Q? If so, the first such contained
// rewriting is returned.
//
// Correctness: an equivalent rewriting is in particular a contained
// rewriting, so it is contained in some irredundant disjunct R of the
// MCR; then Q ≡ E∘V ⊆ R ⊆ Q forces R ≡ Q. Hence an equivalent
// rewriting exists iff some MCR disjunct is equivalent to Q.
func EquivalentRewriting(q, v *tpq.Pattern, opts Options) (*ContainedRewriting, bool, error) {
	res, err := MCR(q, v, opts)
	if err != nil {
		return nil, false, err
	}
	for _, cr := range res.CRs {
		if tpq.Contained(q, cr.Rewriting) { // cr ⊆ q always holds
			return cr, true, nil
		}
	}
	return nil, false, nil
}

// EquivalentRewriting is the schema-relative version: is there a
// compensation E with E ∘ V ≡_S Q?
func (sc *SchemaContext) EquivalentRewriting(q, v *tpq.Pattern, opts Options) (*ContainedRewriting, bool, error) {
	var res *Result
	var err error
	if sc.Schema.IsRecursive() {
		res, err = sc.MCRRecursive(q, v, opts)
	} else {
		res, err = sc.MCRWithSchemaCtx(opts.ctx(), q, v)
	}
	if err != nil {
		return nil, false, err
	}
	for _, cr := range res.CRs {
		if sc.SContained(q, cr.Rewriting) {
			return cr, true, nil
		}
	}
	return nil, false, nil
}
