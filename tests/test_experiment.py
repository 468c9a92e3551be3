"""Metrics, design building, the LOSO protocol, and fixed-lambda fits."""

import numpy as np
import pytest

import oracles
from multippi import experiment, ingest, mlogit, ppi, simulate, textpred
from multippi.errors import ParameterError, ShapeError
from multippi.experiment import (ConfusionMatrix, InferenceSpec, PredictorSpec,
                                 accuracy, build_design, class_order,
                                 confusion_matrix, macro_f1, run_loso)
from multippi.ingest import CAUSE_CLASSES, VALUE_OF_CODE, RecordTable

NC, COM, EXT, MAT, ATB = CAUSE_CLASSES


# -- metrics -------------------------------------------------------------------

def test_accuracy_and_f1_identity_matrix():
    cm = ConfusionMatrix(np.diag([5, 3, 2, 4, 1]), CAUSE_CLASSES)
    assert accuracy(cm) == 1.0
    assert macro_f1(cm) == 1.0


def test_accuracy_and_f1_hand_computed():
    cm = ConfusionMatrix(np.array([[8, 2], [4, 6]]), (NC, COM))
    assert accuracy(cm) == pytest.approx(0.7)
    f1 = experiment.per_class_f1(cm)
    assert f1[0] == pytest.approx(0.727, abs=5e-4)
    assert f1[1] == pytest.approx(0.667, abs=5e-4)
    assert macro_f1(cm) == pytest.approx(0.697, abs=5e-4)


def test_degenerate_class_zero_f1_and_flagged():
    counts = np.zeros((3, 3), dtype=int)
    counts[0, 0] = 5
    counts[1, 1] = 5
    cm = ConfusionMatrix(counts, (NC, COM, EXT))
    assert experiment.per_class_f1(cm)[2] == 0.0
    assert cm.degenerate_classes() == [EXT]
    assert macro_f1(cm) == pytest.approx(2.0 / 3.0)


def test_accuracy_empty_matrix_error():
    cm = ConfusionMatrix(np.zeros((2, 2), dtype=int), (NC, COM))
    with pytest.raises(ParameterError):
        accuracy(cm)


def test_confusion_matrix_builder_marginals():
    true = [0, 1, 1, 2, 0]
    pred = [0, 0, 1, 2, 2]
    cm = confusion_matrix(true, pred)
    for i in range(len(CAUSE_CLASSES)):
        assert cm.counts[i].sum() == true.count(i)
        assert cm.counts[:, i].sum() == pred.count(i)
    assert cm.counts[1, 0] == 1 and cm.counts[0, 2] == 1 and cm.counts[2, 0] == 0
    with pytest.raises(ShapeError):
        confusion_matrix([0, 1], [0])
    with pytest.raises(ShapeError):
        confusion_matrix([0, 5], [0, 1])


# -- design --------------------------------------------------------------------

def records_from_arrays(ages, causes, site="s", prefix="r"):
    return oracles.record_table([(f"{prefix}{i}", site, float(a), "n", c)
                                 for i, (a, c) in enumerate(zip(ages, causes))])


def test_class_order_reference_first():
    present = {NC, COM, EXT}
    assert class_order(present, NC) == (NC, COM, EXT)
    assert class_order(present, EXT) == (EXT, NC, COM)
    with pytest.raises(ShapeError):
        class_order({COM}, NC)


def test_build_design_standardizes_age():
    ages = [20.0, 40.0, 60.0, 80.0]
    records = records_from_arrays(ages, [NC, COM, NC, COM])
    design, _ = build_design(records, NC)
    assert design.x[:, 0].tolist() == [1.0] * 4
    assert design.x[:, 1].mean() == pytest.approx(0.0, abs=1e-12)
    assert design.x[:, 1].std() == pytest.approx(1.0, abs=1e-12)
    assert design.standardization["age"]["mean"] == pytest.approx(50.0)
    assert design.covariate_names == ("intercept", "age_z")
    assert design.y.tolist() == [0, 1, 0, 1]


# -- loso ----------------------------------------------------------------------

def toy_multisite_records(n_sites=6, per_site=30, seed=0):
    """Narratives with class-specific telltale tokens, learnable by NB."""
    rng = np.random.default_rng(seed)
    token_of = {NC: "tumor", COM: "fever", EXT: "crash", MAT: "childbirth", ATB: "hiv"}
    filler = ["the", "person", "was", "ill", "for", "days", "then", "died"]
    rows = []
    for s in range(n_sites):
        for i in range(per_site):
            cause = CAUSE_CLASSES[i % 5]
            words = [token_of[cause]] * 3 + list(rng.choice(filler, size=4))
            rng.shuffle(words)
            rows.append((f"s{s}r{i}", f"site{s}", float(20 + rng.integers(0, 60)),
                         " ".join(words), cause))
    return oracles.record_table(rows)


def test_run_loso_produces_one_report_per_site():
    records = toy_multisite_records()
    reports = run_loso(records, PredictorSpec(kind="nb"),
                       InferenceSpec(labeled_fraction=0.3, seed=5))
    assert [r.site for r in reports] == [f"site{s}" for s in range(6)]
    for rep in reports:
        assert rep.confusion is not None
        assert set(rep.reports) <= {"ground-truth", "naive", "multippi"}
        assert rep.metadata["labeled_subset_source"] == "held-out site only"


def test_run_loso_site_filter():
    records = toy_multisite_records(n_sites=3)
    reports = run_loso(records, PredictorSpec(kind="nb"),
                       InferenceSpec(labeled_fraction=0.3, seed=5),
                       sites=["site1"])
    assert len(reports) == 1 and reports[0].site == "site1"


def test_run_loso_never_trains_on_held_out_site(monkeypatch):
    records = toy_multisite_records(n_sites=3)
    # a token that exists only in the held-out site's narratives
    held_out = records.sites == "site1"
    narratives = records.narratives.copy()
    narratives[held_out] = narratives[held_out] + " zebrafoo"
    records = RecordTable(ids=records.ids, sites=records.sites, ages=records.ages,
                            narratives=narratives, causes=records.causes)
    models = []

    def spy(*args, **kwargs):
        models.append(train(*args, **kwargs))
        return models[-1]

    train = experiment.train_predictor
    monkeypatch.setattr(experiment, "train_predictor", spy)
    run_loso(records, PredictorSpec(kind="nb"),
             InferenceSpec(labeled_fraction=0.3, seed=5), sites=["site1"])
    assert len(models) == 1
    vocab = models[0].vocabulary
    assert "zebrafoo" not in vocab.index
    assert "fever" in vocab.index


def test_run_loso_perfect_predictor_estimators_agree(tmp_path):
    records = toy_multisite_records(n_sites=2, per_site=120, seed=3)
    pred_path = tmp_path / "perfect.csv"
    rows = ["record_id,predicted_label"] + [
        f"{rid},{value}" for rid, value in zip(records.ids, VALUE_OF_CODE[records.causes])]
    pred_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    reports = run_loso(records, PredictorSpec(kind="external",
                                              external_path=str(pred_path)),
                       InferenceSpec(labeled_fraction=0.2, seed=11))
    for site_report in reports:
        assert site_report.accuracy == 1.0
        truth = site_report.reports["ground-truth"]
        for tag in ("naive", "multippi"):
            other = site_report.reports[tag]
            gap = np.abs(other.theta - truth.theta)
            tol = 2 * np.maximum(other.se, truth.se)
            assert np.all(gap <= tol), (site_report.site, tag)


def test_run_loso_training_failure_recorded():
    records = toy_multisite_records(n_sites=2)
    reports = run_loso(records, PredictorSpec(kind="nb", min_count=10_000),
                       InferenceSpec(seed=1))
    for rep in reports:
        assert "training" in rep.errors
        assert not rep.reports


def test_run_loso_needs_two_sites():
    records = toy_multisite_records(n_sites=1)
    with pytest.raises(ShapeError):
        run_loso(records, PredictorSpec(kind="nb"), InferenceSpec())


def test_run_loso_reports_the_same_at_one_and_two_threads():
    records = toy_multisite_records(n_sites=3)
    spec, inference = PredictorSpec(kind="nb"), InferenceSpec(labeled_fraction=0.3, seed=5)
    one, two = (run_loso(records, spec, inference, threads=t) for t in (1, 2))
    assert [r.to_dict() for r in one] == [r.to_dict() for r in two]


@pytest.mark.parametrize("threads", [0, -3])
def test_run_loso_rejects_fewer_than_one_thread(threads):
    with pytest.raises(ParameterError, match=f"threads must be at least 1, got {threads}"):
        run_loso(toy_multisite_records(n_sites=2), PredictorSpec(kind="nb"), InferenceSpec(),
                 threads=threads)


def test_run_loso_text_predictor_on_unloaded_narratives_is_parameter_error(data_dir):
    columns = ingest.column_map_from_config(ingest.parse_config_file(data_dir / "columns.cfg"))
    records = ingest.load_records(data_dir / "toy.csv", columns, narratives=False).records
    with pytest.raises(ParameterError, match="narratives were not loaded"):
        run_loso(records, PredictorSpec(kind="nb"), InferenceSpec())


def test_evaluate_site_degeneracy_flag():
    # a cause class so rare the labeled split misses it
    causes = [NC] * 6 + [COM] * 5 + [MAT]
    ages = 30 + 3 * np.arange(12)
    records = records_from_arrays(ages, causes)
    predictions = textpred.PredictionSet(codes=records.causes,
                                         provenance="external:perfect")
    flagged = None
    for seed in range(60):
        report = experiment.evaluate_site(
            records, predictions, InferenceSpec(labeled_fraction=0.25, seed=seed),
            split_seed=seed, site="s")
        if report.degeneracy_flag:
            flagged = report
            break
    assert flagged is not None
    assert "labeled_split_missing_classes" in flagged.metadata


def test_evaluate_site_with_too_few_labeled_rows_keeps_its_naive_report():
    # the data above: 3 labeled rows cannot carry multiPPI++'s 4 coefficients
    causes = [NC] * 6 + [COM] * 5 + [MAT]
    records = records_from_arrays(30 + 3 * np.arange(12), causes)
    predictions = textpred.PredictionSet(codes=records.causes,
                                         provenance="external:perfect")
    report = experiment.evaluate_site(
        records, predictions, InferenceSpec(labeled_fraction=0.25, seed=0),
        split_seed=0, site="s")
    assert set(report.reports) == {"ground-truth", "naive"}
    naive = report.reports["naive"]
    assert (naive.n_labeled, naive.n_unlabeled) == (3, 9)
    assert report.errors == {
        "multippi": "ShapeError: need at least 5 labeled rows to estimate covariances, got 3"}


def test_evaluate_site_stacks_its_inputs_once(monkeypatch):
    # naive and multippi come from one batched call on one stack of the site's inputs
    records = toy_multisite_records(n_sites=1, per_site=60)
    predictions = textpred.PredictionSet(codes=records.causes,
                                         provenance="external:perfect")
    stacked = []
    stack_of = ppi._InputStack.of

    def counted(inputs):
        stacked.append(len(inputs))
        return stack_of(inputs)

    monkeypatch.setattr(ppi._InputStack, "of", counted)
    report = experiment.evaluate_site(
        records, predictions, InferenceSpec(labeled_fraction=0.5, seed=0),
        split_seed=0, site="site0")
    assert set(report.reports) == {"ground-truth", "naive", "multippi"}
    assert stacked == [1]


@pytest.mark.parametrize("options, message", [
    ({"alpha": 1.5}, "alpha must lie in (0, 1), got 1.5"),
    ({"lambda_mode": 1.5}, "lambda must lie in [0, 1], got 1.5"),
    ({"lambda_mode": "tune"}, "lambda must be 'tuned' or a number in [0, 1], got 'tune'"),
    ({"labeled_fraction": 1.0}, "labeled_fraction must lie in (0, 1), got 1.0"),
    ({"split_strategy": "by-site"}, "unknown split strategy 'by-site'"),
], ids=["alpha", "lambda", "lambda-string", "labeled-fraction", "split"])
def test_inference_spec_rejects_bad_options(options, message):
    with pytest.raises(ParameterError) as raised:
        InferenceSpec(**options)
    assert str(raised.value) == message


def test_site_report_serialization():
    records = toy_multisite_records(n_sites=2, per_site=40)
    reports = run_loso(records, PredictorSpec(kind="nb"),
                       InferenceSpec(labeled_fraction=0.3, seed=5))
    doc = reports[0].to_dict()
    assert doc["format"] == "multippi-site-report"
    assert doc["site"] == "site0"
    rows = reports[0].combined_csv_rows()
    assert all(row["site"] == "site0" for row in rows)
    assert {row["estimator"] for row in rows} <= {"ground-truth", "naive", "multippi"}


# -- transportability Monte Carlo ------------------------------------------------

def synthetic_site_records(theta_star, n, site, rng, prefix):
    """Records whose (z-scored) age drives the cause via theta_star exactly."""
    z = rng.standard_normal(n)
    z = (z - z.mean()) / z.std()          # sample moments exactly (0, 1)
    ages = 50.0 + 10.0 * z
    x = np.column_stack([np.ones(n), z])
    probs = mlogit.class_probs(theta_star, x, 3)
    full = np.column_stack([1 - probs.sum(axis=1), probs])
    y = (rng.random(n)[:, None] > np.cumsum(full, axis=1)[:, :-1]).sum(axis=1)
    causes = [CAUSE_CLASSES[v] for v in y]
    records = records_from_arrays(ages, causes, site=site, prefix=prefix)
    return records, y.astype(np.int64)


def test_run_loso_transportability_coverage(tmp_path):
    # site-shifted priors, shared miscalibrated predictor: rectified CIs
    # keep covering each site's generating coefficients, naive ones do not
    thetas = {"siteA": np.array([0.4, 0.8, -0.3, -0.8]),
              "siteB": np.array([-0.3, 0.8, 0.3, -0.8])}
    noise = simulate.ASYMMETRIC_3CLASS
    reps = 200
    n_per_site = 1000
    covered = {"multippi": [], "naive": []}
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(321, spawn_key=(rep,)))
        tables, rows = [], ["record_id,predicted_label"]
        for s, (site, theta) in enumerate(thetas.items()):
            records, y = synthetic_site_records(theta, n_per_site, site, rng,
                                                prefix=f"{site}_")
            yhat = simulate.corrupt(y, noise, rng)
            rows.extend(f"{rid},{CAUSE_CLASSES[v].value}"
                        for rid, v in zip(records.ids, yhat))
            tables.append(records)
        pred_path = tmp_path / f"pred_{rep}.csv"
        pred_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        all_records = RecordTable(
            *(np.concatenate([getattr(t, name) for t in tables])
              for name in ("ids", "sites", "ages", "narratives", "causes")))
        reports = run_loso(all_records,
                           PredictorSpec(kind="external", external_path=str(pred_path)),
                           InferenceSpec(labeled_fraction=0.2, seed=rep))
        pred_path.unlink()
        for site_report in reports:
            theta = thetas[site_report.site]
            for tag in ("multippi", "naive"):
                rep_obj = site_report.reports[tag]
                covered[tag].append((rep_obj.ci_lower <= theta)
                                    & (theta <= rep_obj.ci_upper))
    multippi_cov = np.mean(covered["multippi"], axis=0)
    naive_cov = np.mean(covered["naive"], axis=0)
    assert np.all(multippi_cov >= 0.93), multippi_cov
    assert np.all(naive_cov < 0.5), naive_cov


# -- fixed-lambda fits ---------------------------------------------------------------

def sweep_inputs(seed=77):
    spec = simulate.default_spec(seed=seed, n_labeled=150, n_unlabeled=450)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    data = simulate.generate(spec, rng)
    yhat_l = simulate.corrupt(data.y_labeled, simulate.ASYMMETRIC_3CLASS, rng)
    yhat_u = simulate.corrupt(data.y_unlabeled, simulate.ASYMMETRIC_3CLASS, rng)
    return ppi.PpiInputs(data.x_labeled, data.y_labeled, yhat_l,
                         data.x_unlabeled, yhat_u, 3)


def lambda_sweep(inputs, grid):
    """Fixed-lambda reports across a grid in [0, 1]."""
    return [ppi.fit_multippi_report(inputs, float(lam)) for lam in grid]


def test_lambda_sweep_zero_grid_matches_classical():
    inputs = sweep_inputs()
    reports = lambda_sweep(inputs, [0.0])
    theta_classical, _ = mlogit.fit_mle(inputs.x_labeled, inputs.y_labeled, 3)
    assert np.max(np.abs(reports[0].theta - theta_classical)) < 1e-10


def test_lambda_sweep_structure():
    inputs = sweep_inputs()
    reports = lambda_sweep(inputs, [0.0, 0.5, 1.0])
    assert [r.lambda_choice.clipped for r in reports] == [0.0, 0.5, 1.0]
    assert all(r.theta.shape == (4,) and r.se.shape == (4,) for r in reports)


def test_lambda_sweep_continuity():
    inputs = sweep_inputs()
    for base in (0.2, 0.5, 0.8):
        fine = lambda_sweep(inputs, [base, base + 0.01])
        coarse = lambda_sweep(inputs, [base, base + 0.1])
        d_fine = np.linalg.norm(fine[1].theta - fine[0].theta)
        d_coarse = np.linalg.norm(coarse[1].theta - coarse[0].theta)
        assert d_fine < 10 * d_coarse
        assert d_fine < d_coarse
