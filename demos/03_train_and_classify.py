"""
Co-training two concept views and classifying with the product rule
===================================================================

Fits the per-view classifiers on 60 labeled documents, lets co-training
promote confident unlabeled documents for a few iterations, then labels
held-out documents by comparing prod(P_j) against prod(1 - P_j).
"""

from codecomp import (
    CoConfig,
    HashedWindowProvider,
    SampleSpec,
    TrainConfig,
    build_examples,
    cotrain_fit,
    load_lexicons,
    predict,
    process_document,
    sample_labeled,
)
from codecomp.synthetic import decomposable_corpus

docs, preset = decomposable_corpus(600, seed=11, positive_rate=0.4, ambiguity=0.15)
lexicons = load_lexicons()
provider = HashedWindowProvider(window=2, dim=64)
# the view names state the views: build_examples makes one view per name,
# and cotrain_fit rejects a view count other than len(names)
names = tuple(k.name for k in preset.kcs_list)

held_out, pool = docs[:100], docs[100:]
labeled_docs, unlabeled_docs = sample_labeled(pool, SampleSpec(n_labeled=60, seed=3))

vectorize = lambda ds: build_examples(
    [process_document(d, preset, lexicons) for d in ds], provider, names)
labeled = vectorize(labeled_docs)
unlabeled = vectorize(unlabeled_docs)

model = cotrain_fit(
    labeled, unlabeled, len(names),
    CoConfig(iterations=15, confidence_floor=0.7),
    TrainConfig(),
    names,
)

print("iteration log (first five):")
for record in model.iteration_log[:5]:
    moved = ", ".join(f"{p['doc_id']}({p['kind'][0]}:{p['view']})"
                      for p in record.promotions) or "nothing promoted"
    print(f"  iter {record.iteration}: {moved}; "
          f"pool {record.labeled_examples}L/{record.unlabeled_examples}U")

correct = 0
test_examples = vectorize(held_out)
for doc, example in zip(held_out[:5], test_examples[:5]):
    label, probs = predict(model, example)
    shown = " ".join(f"{name}={p:.2f}" for name, p in zip(names, probs))
    print(f"{doc.id}: {shown} -> {label} (gold {doc.gold_label})")
correct = sum(predict(model, e)[0] == d.gold_label
              for d, e in zip(held_out, test_examples))
print(f"\nheld-out accuracy: {correct}/{len(held_out)}")
