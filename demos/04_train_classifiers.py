"""Fit, score, persist, and cross-validate the three classifiers.

All three expose the same surface: fit_model(name, dataset, params),
score_batch for positive-class scores in [0, 1], predict_batch for hard
labels, and JSON round-trips via save_model/load_model.
"""

import os
import tempfile

import numpy as np

from botsift import (apply_scaler, cleanse, cross_validate, default_profile,
                     encode, evaluate_model, fit_model, fit_scaler, generate,
                     load_model, save_model, score_batch, to_dataset,
                     train_test_split)

flows = cleanse(generate(default_profile(), rows=6_000, seed=3))
dataset = to_dataset(encode(flows)[0])
train, test = train_test_split(dataset, test_fraction=0.25, seed=4)
scaler = fit_scaler(train)  # fitted on training rows only
train, test = apply_scaler(train, scaler), apply_scaler(test, scaler)
print(f"train {train.class_counts}, test {test.class_counts}\n")

settings = {
    "gnb": {},
    "knn": {"k": 5},
    "mlp": {"hidden": 16, "epochs": 30, "seed": 8},
}
for name, params in settings.items():
    model = fit_model(name, train, params)
    print(evaluate_model(model, test, model_name=name).to_text())
    print()

# models persist as plain JSON and round-trip bit for bit
model = fit_model("knn", train, {"k": 5})
path = os.path.join(tempfile.mkdtemp(prefix="botsift-demo-"), "knn.json")
save_model(model, path)
reloaded = load_model(path)
same = np.array_equal(score_batch(model, test.features),
                      score_batch(reloaded, test.features))
print(f"saved and reloaded model scores identically: {same}")

# stratified cross-validation on the training rows
cv = cross_validate(train, "gnb", k=5, seed=6)
accuracy = [fold.accuracy for fold in cv.fold_metrics]
print(f"gnb 5-fold accuracy per fold: {[f'{a:.3f}' for a in accuracy]}")
print(f"mean {cv.mean['accuracy']:.3f}, std {cv.std['accuracy']:.3f}")
