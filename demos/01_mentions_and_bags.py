"""
Mention extraction, synthesis, masking, and bag construction
=============================================================

Walks a few tweet-like strings through the per-view preprocessing: the
tokenizer, the human-mention rules, the sentence-start rewrites that insert
elided first-person mentions, mask rewriting, and the per-view bags with
their automatic instance labels.
"""

from codecomp import Document, load_lexicons, process_document, token_surfaces
from codecomp.presets import task_preset

lexicons = load_lexicons()
preset = task_preset("phm-cancer")

# a positive posting: the author annotated the span of "i" as the affected human
text = "I Just went to my Oncology appointment!!! Praying that it's not cancer"
doc = Document(id="t1", text=text, gold_label="positive",
               positive_human_spans=((0, 1),), task="phm-cancer")

print("tokens:", token_surfaces(text))

pdoc = process_document(doc, preset, lexicons)
print("\nafter synthesis:", list(pdoc.surfaces))
print("inserted, zero-width:", [(t.surface, t.start, t.end) for t in pdoc.tokens
                                 if t.start == t.end])
print("masked for the encoder:", list(pdoc.masked_tokens))

for bag in pdoc.bags:
    print(f"\n{bag.kcs_name} bag:")
    for mention, label in bag.instances:
        kind = "synthetic" if mention.synthetic else "explicit"
        print(f"  {mention.surface!r:12s} tokens{mention.token_range} {kind:9s} -> {label}")

# the five rewrite rules, one example each
print("\nsentence-start rewrites:")
for sentence in ["went to the er", "sick of this flu", "diagnosed with flu",
                 "coughing all night", "is feeling sick"]:
    rewritten = process_document(
        Document(id="x", text=sentence), preset, lexicons).surfaces
    print(f"  {sentence!r} -> {' '.join(rewritten)!r}")

# labeling policy at a glance: negative postings mark every mention negative
negative = Document(id="t2", text="worried about my friend and cancer awareness",
                    gold_label="negative")
for bag in process_document(negative, preset, lexicons).bags:
    print(f"\nnegative posting, {bag.kcs_name} bag labels:",
          [label for _, label in bag.instances])
