"""The service's single-file browser dashboard.

Embedded as a Python string (not package data) so a ``pip install`` — or a
zipapp — always carries it; the WSGI app serves it verbatim at ``/``.  It is
plain HTML + vanilla JS over the JSON API: a stat-tile row, the run table
with per-run progress meters, SLA/receipt verdict badges (icon + label, never
color alone), a per-interval estimate table and the campaign summary for the
selected run, and a submit form that POSTs a spec to ``/api/v1/jobs``.

Styling follows the repo-neutral dataviz conventions: roles are CSS custom
properties with light and dark values both selected (OS preference via
``prefers-color-scheme``), text wears text tokens rather than status colors,
numeric table columns use tabular figures, and the status palette
(good/critical) is reserved for verdicts.
"""

from __future__ import annotations

__all__ = ["DASHBOARD_HTML"]

DASHBOARD_HTML = r"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro measurement service</title>
<style>
  :root {
    color-scheme: light;
    --page:          #f9f9f7;
    --surface:       #fcfcfb;
    --text-primary:  #0b0b0b;
    --text-secondary:#52514e;
    --muted:         #898781;
    --grid:          #e1e0d9;
    --baseline:      #c3c2b7;
    --border:        rgba(11,11,11,0.10);
    --accent:        #2a78d6;   /* progress meter fill (sequential blue) */
    --status-good:     #0ca30c;
    --status-critical: #d03b3b;
    --status-warning:  #fab219;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --page:          #0d0d0d;
      --surface:       #1a1a19;
      --text-primary:  #ffffff;
      --text-secondary:#c3c2b7;
      --muted:         #898781;
      --grid:          #2c2c2a;
      --baseline:      #383835;
      --border:        rgba(255,255,255,0.10);
      --accent:        #3987e5;
    }
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; padding: 24px;
    background: var(--page); color: var(--text-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  h1 { font-size: 18px; margin: 0; font-weight: 650; }
  h2 { font-size: 13px; margin: 0 0 8px; font-weight: 650;
       color: var(--text-secondary); text-transform: uppercase;
       letter-spacing: 0.04em; }
  header { display: flex; align-items: baseline; gap: 12px; margin-bottom: 20px; }
  header .root { color: var(--muted); font-size: 12px; }
  section.card {
    background: var(--surface); border: 1px solid var(--border);
    border-radius: 8px; padding: 16px; margin-bottom: 16px;
  }
  .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 16px; }
  .tile {
    background: var(--surface); border: 1px solid var(--border);
    border-radius: 8px; padding: 12px 16px; min-width: 130px;
  }
  .tile .value { font-size: 26px; font-weight: 650; }
  .tile .label { color: var(--text-secondary); font-size: 12px; margin-top: 2px; }
  table { border-collapse: collapse; width: 100%; }
  th {
    text-align: left; color: var(--muted); font-size: 11px;
    text-transform: uppercase; letter-spacing: 0.04em; font-weight: 600;
    padding: 6px 10px; border-bottom: 1px solid var(--baseline);
  }
  td { padding: 6px 10px; border-bottom: 1px solid var(--grid); }
  td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
  tr.run-row { cursor: pointer; }
  tr.run-row:hover td { background: color-mix(in srgb, var(--accent) 7%, transparent); }
  tr.run-row.selected td { background: color-mix(in srgb, var(--accent) 14%, transparent); }
  .mono { font-family: ui-monospace, SFMono-Regular, Menlo, monospace; font-size: 12px; }
  .meter {
    display: inline-block; vertical-align: middle;
    width: 120px; height: 8px; border-radius: 4px;
    background: var(--grid); overflow: hidden; margin-right: 8px;
  }
  .meter > i { display: block; height: 100%; border-radius: 4px;
               background: var(--accent); }
  .meter-text { color: var(--text-secondary); font-variant-numeric: tabular-nums;
                font-size: 12px; }
  .badge {
    display: inline-flex; align-items: center; gap: 4px;
    font-size: 12px; font-weight: 600; color: var(--text-secondary);
  }
  .badge .dot { font-weight: 700; }
  .badge.good .dot { color: var(--status-good); }
  .badge.bad .dot { color: var(--status-critical); }
  .badge.none .dot { color: var(--muted); }
  .empty { color: var(--muted); padding: 12px 0; }
  .meta { color: var(--text-secondary); font-size: 12px; margin-bottom: 10px; }
  .meta .mono { color: var(--muted); }
  form.submit { display: grid; gap: 8px; }
  form.submit textarea, form.submit input {
    width: 100%; background: var(--page); color: var(--text-primary);
    border: 1px solid var(--baseline); border-radius: 6px; padding: 8px;
    font-family: ui-monospace, SFMono-Regular, Menlo, monospace; font-size: 12px;
  }
  form.submit textarea { min-height: 120px; resize: vertical; }
  form.submit .row { display: flex; gap: 8px; align-items: center; }
  form.submit button {
    background: var(--accent); color: #fff; border: 0; border-radius: 6px;
    padding: 8px 16px; font-weight: 600; cursor: pointer;
  }
  #submit-result { font-size: 12px; }
  #submit-result.err { color: var(--status-critical); font-weight: 600; }
  #submit-result.ok { color: var(--text-secondary); }
  .cols { display: grid; grid-template-columns: 1fr; gap: 0; }
  @media (min-width: 1100px) { .cols { grid-template-columns: 3fr 2fr; gap: 16px; } }
</style>
</head>
<body>
<header>
  <h1>repro measurement service</h1>
  <span class="root" id="store-root"></span>
</header>

<div class="tiles">
  <div class="tile"><div class="value" id="tile-runs">–</div><div class="label">runs in store</div></div>
  <div class="tile"><div class="value" id="tile-complete">–</div><div class="label">complete</div></div>
  <div class="tile"><div class="value" id="tile-active">–</div><div class="label">active jobs</div></div>
  <div class="tile"><div class="value" id="tile-violations">–</div><div class="label">SLA violations</div></div>
</div>

<div class="cols">
<div>
<section class="card">
  <h2>Runs</h2>
  <table>
    <thead><tr>
      <th>run</th><th>campaign</th><th>progress</th><th>SLA</th>
    </tr></thead>
    <tbody id="runs-body"></tbody>
  </table>
  <div class="empty" id="runs-empty" hidden>no runs in the store yet — submit a campaign below</div>
</section>

<section class="card" id="detail-card" hidden>
  <h2 id="detail-title">Run</h2>
  <div class="meta" id="detail-meta"></div>
  <h2>Campaign summary</h2>
  <table>
    <thead><tr>
      <th>domain</th><th class="num">samples</th><th class="num">pooled delay [ms]</th>
      <th class="num">loss [%]</th><th class="num">accepted</th><th>SLA verdict</th>
    </tr></thead>
    <tbody id="summary-body"></tbody>
  </table>
  <div style="height:14px"></div>
  <h2>Per-interval estimates</h2>
  <table>
    <thead><tr>
      <th class="num">interval</th><th>domain</th><th class="num">delay [ms]</th>
      <th class="num">loss [%]</th><th>receipts</th><th>SLA</th>
    </tr></thead>
    <tbody id="records-body"></tbody>
  </table>
</section>
</div>

<div>
<section class="card">
  <h2>Submit a campaign</h2>
  <form class="submit" id="submit-form">
    <textarea id="spec-input" placeholder='CampaignSpec JSON, e.g. {"name": "...", "intervals": 6, "cell": {...}, "sla": {...}}' spellcheck="false"></textarea>
    <input id="policy-input" placeholder='optional ExecutionPolicy JSON, e.g. {"engine": "streaming", "chunk_size": 65536}' spellcheck="false">
    <div class="row">
      <input id="runid-input" placeholder="optional run id" style="flex:1">
      <button type="submit">Submit</button>
    </div>
    <div id="submit-result"></div>
  </form>
</section>

<section class="card">
  <h2>Jobs</h2>
  <table>
    <thead><tr>
      <th>job</th><th>run</th><th>state</th><th class="num">attempts</th>
    </tr></thead>
    <tbody id="jobs-body"></tbody>
  </table>
  <div class="empty" id="jobs-empty" hidden>no jobs submitted to this service instance</div>
</section>
</div>
</div>

<script>
"use strict";
const $ = (id) => document.getElementById(id);
const esc = (value) => String(value).replace(/[&<>"']/g,
  (ch) => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;","'":"&#39;"}[ch]));

let selectedRun = null;

function badge(kind, label) {
  const cls = kind === true ? "good" : kind === false ? "bad" : "none";
  const dot = kind === true ? "✓" : kind === false ? "✕" : "–";
  return `<span class="badge ${cls}"><span class="dot">${dot}</span>${esc(label)}</span>`;
}
const slaBadge = (verdict) => badge(verdict,
  verdict === true ? "compliant" : verdict === false ? "violated" : "no verdict");
const receiptBadge = (accepted) => badge(accepted,
  accepted === true ? "accepted" : accepted === false ? "rejected" : "unverified");

function delayMs(quantiles, sla) {
  const keys = Object.keys(quantiles || {});
  if (!keys.length) return null;
  let key = keys.sort()[0];
  if (sla && quantiles[String(sla.delay_quantile)]) key = String(sla.delay_quantile);
  return quantiles[key].estimate * 1e3;
}
const fmt = (value, digits) => value === null || value === undefined
  ? "n/a" : value.toFixed(digits === undefined ? 3 : digits);

async function getJSON(url) {
  const response = await fetch(url);
  const payload = await response.json();
  if (!response.ok) throw new Error(payload.error || response.statusText);
  return payload;
}

async function refreshHealth() {
  const health = await getJSON("/api/v1/health");
  $("store-root").textContent = health.store_root;
  const active = health.queue ? health.queue.queued + health.queue.running : 0;
  $("tile-active").textContent = health.queue ? active : "off";
}

async function refreshRuns() {
  const payload = await getJSON("/api/v1/runs");
  const runs = payload.runs;
  $("tile-runs").textContent = runs.length;
  $("tile-complete").textContent = runs.filter((r) => r.intervals.complete).length;
  $("tile-violations").textContent =
    runs.filter((r) => r.sla_compliant === false).length;
  $("runs-empty").hidden = runs.length > 0;
  $("runs-body").innerHTML = runs.map((run) => {
    const pct = run.intervals.total
      ? Math.round(100 * run.intervals.completed / run.intervals.total) : 0;
    return `<tr class="run-row ${run.run === selectedRun ? "selected" : ""}"
                data-run="${esc(run.run)}">
      <td class="mono">${esc(run.run)}</td>
      <td>${esc(run.name)}</td>
      <td><span class="meter"><i style="width:${pct}%"></i></span>
          <span class="meter-text">${run.intervals.completed}/${run.intervals.total}</span></td>
      <td>${slaBadge(run.sla_compliant)}</td>
    </tr>`;
  }).join("");
  for (const row of document.querySelectorAll("tr.run-row")) {
    row.addEventListener("click", () => { selectedRun = row.dataset.run; refresh(); });
  }
}

async function refreshDetail() {
  if (!selectedRun) { $("detail-card").hidden = true; return; }
  let report;
  try { report = await getJSON(`/api/v1/runs/${encodeURIComponent(selectedRun)}/report`); }
  catch (err) { $("detail-card").hidden = true; selectedRun = null; return; }
  $("detail-card").hidden = false;
  $("detail-title").textContent = `Run ${report.run}`;
  const edited = report.summary_matches_store === false
    ? " — WARNING: summary.json disagrees with records (store edited)" : "";
  $("detail-meta").innerHTML =
    `campaign <b>${esc(report.name)}</b> · ` +
    `${report.intervals.completed}/${report.intervals.total} intervals · ` +
    `spec <span class="mono">${esc(report.spec_hash.slice(0, 12))}</span>` +
    (report.sla ? ` · SLA ${esc(report.sla.name)}: delay ≤ ${report.sla.delay_bound * 1e3} ms ` +
      `at q=${report.sla.delay_quantile}, loss ≤ ${report.sla.loss_bound * 100}%` : "") +
    esc(edited);
  const summary = report.summary ? report.summary.domains : {};
  $("summary-body").innerHTML = Object.keys(summary).sort().map((domain) => {
    const entry = summary[domain];
    return `<tr>
      <td>${esc(domain)}</td>
      <td class="num">${entry.delay_sample_count}</td>
      <td class="num">${fmt(delayMs(entry.pooled_quantiles, report.sla))}</td>
      <td class="num">${fmt(entry.loss_rate * 100)}</td>
      <td class="num">${Math.round(entry.acceptance_rate * 100)}%</td>
      <td>${slaBadge(entry.sla_compliant)}</td>
    </tr>`;
  }).join("");
  $("records-body").innerHTML = report.records.flatMap((record) =>
    Object.keys(record.estimates).sort().map((domain) => {
      const estimate = record.estimates[domain];
      const verdict = record.verdicts[domain];
      return `<tr>
        <td class="num">${record.interval}</td>
        <td>${esc(domain)}</td>
        <td class="num">${fmt(delayMs(estimate.quantiles, report.sla))}</td>
        <td class="num">${fmt(estimate.loss_rate * 100)}</td>
        <td>${receiptBadge(verdict.accepted)}</td>
        <td>${slaBadge(verdict.sla_compliant)}</td>
      </tr>`;
    })).join("");
}

async function refreshJobs() {
  let payload;
  try { payload = await getJSON("/api/v1/jobs"); }
  catch (err) { $("jobs-empty").hidden = false; return; }
  $("jobs-empty").hidden = payload.jobs.length > 0;
  $("jobs-body").innerHTML = payload.jobs.map((job) => `<tr>
    <td class="mono">${esc(job.id)}</td>
    <td class="mono">${esc(job.run)}</td>
    <td>${badge(job.state === "completed" ? true : job.state === "failed" ? false : null,
                job.state)}${job.error ? ` <span class="mono">${esc(job.error)}</span>` : ""}</td>
    <td class="num">${job.attempts}/${job.max_attempts}</td>
  </tr>`).join("");
}

$("submit-form").addEventListener("submit", async (event) => {
  event.preventDefault();
  const result = $("submit-result");
  result.className = "";
  result.textContent = "submitting…";
  try {
    const body = { spec: JSON.parse($("spec-input").value) };
    const policyText = $("policy-input").value.trim();
    if (policyText) body.policy = JSON.parse(policyText);
    const runId = $("runid-input").value.trim();
    if (runId) body.run_id = runId;
    const response = await fetch("/api/v1/jobs", {
      method: "POST",
      headers: { "Content-Type": "application/json" },
      body: JSON.stringify(body),
    });
    const payload = await response.json();
    if (!response.ok) throw new Error(payload.error || response.statusText);
    result.className = "ok";
    result.textContent =
      `accepted: ${payload.job.id} → run ${payload.job.run}`;
    selectedRun = payload.job.run;
  } catch (err) {
    result.className = "err";
    result.textContent = String(err.message || err);
  }
  refresh();
});

async function refresh() {
  try {
    await Promise.all([refreshHealth(), refreshRuns(), refreshJobs()]);
    await refreshDetail();
  } catch (err) { /* transient — next tick retries */ }
}
refresh();
setInterval(refresh, 2500);
</script>
</body>
</html>
"""
