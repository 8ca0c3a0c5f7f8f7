(* The training-dynamics observatory: ambient layer attribution, gradient
   and saturation recording (and its disabled-path silence), embedding
   drift / neighbor churn against a frozen probe set, the health rule
   engine (each rule fires on a synthetic bad run and stays silent on a
   clean one), quantile edge cases that must never leak NaN into a report,
   and the [liger report] HTML renderer's golden structure contract. *)

module OM = Liger_obs.Metrics
module Dynamics = Liger_obs.Dynamics
module Health = Liger_obs.Health
module Report_html = Liger_obs.Report_html
module Json = Liger_obs.Json

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let count_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i acc =
    if i + n > h then acc
    else if String.sub hay i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let fresh () =
  OM.enable ();
  OM.reset ();
  Dynamics.enable ();
  Dynamics.reset ()

let gauge name labels =
  OM.gauge_value ~labels (OM.snapshot ()) name

(* one synthetic ledger line: {"gauges": {...}} *)
let line kvs =
  let body =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) kvs)
  in
  match Json.parse (Printf.sprintf "{\"gauges\": {%s}}" body) with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad synthetic ledger line: %s" e

let run_of ?(label = "synthetic") lines =
  { Report_html.label; lines; probe = None; postmortem = None; bench = [] }

(* ------------------------------------------------------------------ *)
(* Dynamics recording                                                  *)
(* ------------------------------------------------------------------ *)

let test_ambient_layer () =
  fresh ();
  Alcotest.(check string) "no ambient layer" "?" (Dynamics.current_layer ());
  Dynamics.with_layer "decoder" (fun () ->
      Alcotest.(check string) "outer layer" "decoder" (Dynamics.current_layer ());
      Dynamics.with_layer "linear" (fun () ->
          (* the outermost frame wins: a nested generic primitive must not
             steal the attribution from the model layer that invoked it *)
          Alcotest.(check string) "outermost wins" "decoder" (Dynamics.current_layer ())));
  Alcotest.(check string) "stack unwound" "?" (Dynamics.current_layer ())

let test_group_of_param () =
  fresh ();
  Alcotest.(check string) "strips suffix" "enc.gates" (Dynamics.group_of_param "enc.gates.w");
  Alcotest.(check string) "single dot" "f1" (Dynamics.group_of_param "f1.b");
  Alcotest.(check string) "no dot" "vocab" (Dynamics.group_of_param "vocab")

let test_record_layer_grad () =
  fresh ();
  Dynamics.record_layer_grad ~layer:"enc" 0.25;
  Alcotest.(check (option (float 1e-9))) "gauge recorded" (Some 0.25)
    (gauge "dynamics.layer_grad_norm" [ ("layer", "enc") ]);
  (* exactly-zero means "did not participate", not "vanished" — skipped *)
  Dynamics.record_layer_grad ~layer:"unused" 0.0;
  Alcotest.(check (option (float 1e-9))) "zero norm skipped" None
    (gauge "dynamics.layer_grad_norm" [ ("layer", "unused") ]);
  (* non-finite values are clamped to a huge finite norm so the exploding
     rule fires instead of the JSON writer turning them into 0 *)
  Dynamics.record_layer_grad ~layer:"nan" Float.nan;
  Alcotest.(check (option (float 1.0))) "nan clamped huge" (Some 1e9)
    (gauge "dynamics.layer_grad_norm" [ ("layer", "nan") ])

let test_disabled_records_nothing () =
  fresh ();
  Dynamics.disable ();
  Dynamics.record_layer_grad ~layer:"enc" 0.25;
  Dynamics.record_layer_update ~layer:"enc" ~update_norm:1.0 ~weight_norm:10.0;
  Dynamics.record_saturation ~act:"tanh" ~saturated:5 ~total:10 ~dead:1 ~units:4;
  Dynamics.observe_embeddings ~id:"m" [| [| 1.0 |]; [| 2.0 |] |];
  Alcotest.(check int) "registry untouched" 0 (List.length (OM.snapshot ()));
  Dynamics.enable ()

let test_observe_embeddings () =
  fresh ();
  (* 8 probes on the unit circle: enough that each top-5 neighbor set
     excludes two candidates, so moving probes can actually churn it *)
  let vec deg =
    let r = deg *. Float.pi /. 180.0 in
    [| Stdlib.cos r; Stdlib.sin r |]
  in
  let embs () = Array.init 8 (fun i -> vec (float_of_int (i * 10))) in
  Dynamics.observe_embeddings ~id:"m" (embs ());
  Alcotest.(check (option (float 1e-9))) "first call publishes nothing" None
    (gauge "dynamics.embed_drift" [ ("model", "m") ]);
  (* identical probe set again: zero drift, zero churn *)
  Dynamics.observe_embeddings ~id:"m" (embs ());
  Alcotest.(check (option (float 1e-9))) "no drift" (Some 0.0)
    (gauge "dynamics.embed_drift" [ ("model", "m") ]);
  Alcotest.(check (option (float 1e-9))) "no churn" (Some 0.0)
    (gauge "dynamics.nn_churn" [ ("model", "m") ]);
  (* drag the first two probes across the circle: both their own neighbor
     sets and their old neighbors' sets change *)
  let rotated =
    Array.init 8 (fun i ->
        if i < 2 then vec (180.0 +. (float_of_int i *. 10.0))
        else vec (float_of_int (i * 10)))
  in
  Dynamics.observe_embeddings ~id:"m" rotated;
  (match gauge "dynamics.embed_drift" [ ("model", "m") ] with
  | Some d -> Alcotest.(check bool) "drift positive" true (d > 0.0)
  | None -> Alcotest.fail "drift gauge missing");
  match gauge "dynamics.nn_churn" [ ("model", "m") ] with
  | Some c -> Alcotest.(check bool) "churn positive" true (c > 0.0)
  | None -> Alcotest.fail "churn gauge missing"

let test_saturation_gauges () =
  fresh ();
  Dynamics.with_layer "lstm" (fun () ->
      Dynamics.record_saturation ~act:"tanh" ~saturated:9 ~total:10 ~dead:2 ~units:4);
  Alcotest.(check (option (float 1e-9))) "saturation fraction" (Some 0.9)
    (gauge "dynamics.saturation" [ ("act", "tanh"); ("layer", "lstm") ]);
  Alcotest.(check (option (float 1e-9))) "dead fraction" (Some 0.5)
    (gauge "dynamics.dead_units" [ ("act", "tanh"); ("layer", "lstm") ])

(* ------------------------------------------------------------------ *)
(* Quantiles must be total                                             *)
(* ------------------------------------------------------------------ *)

let test_quantile_empty () =
  let h = { OM.buckets = [| 1.0; 2.0 |]; counts = [| 0; 0; 0 |]; sum = 0.0; count = 0 } in
  Alcotest.(check (float 1e-9)) "empty histogram" 0.0 (OM.quantile h 0.5);
  let hb = { OM.buckets = [||]; counts = [| 3 |]; sum = 1.0; count = 3 } in
  Alcotest.(check (float 1e-9)) "no buckets" 0.0 (OM.quantile hb 0.5)

let test_quantile_single_bucket () =
  fresh ();
  List.iter (fun v -> OM.observe ~buckets:[| 4.0 |] "single" v) [ 1.0; 2.0; 3.0 ];
  match OM.hist_view (OM.snapshot ()) "single" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      let q = OM.quantile h 0.5 in
      Alcotest.(check bool) "finite" true (Float.is_finite q);
      Alcotest.(check bool) "within [0, bound]" true (q >= 0.0 && q <= 4.0)

(* ------------------------------------------------------------------ *)
(* Health rules                                                        *)
(* ------------------------------------------------------------------ *)

let rules findings = List.map (fun (f : Health.finding) -> f.Health.rule) findings

let test_health_vanishing () =
  let findings =
    Health.evaluate [ line [ ("dynamics.layer_grad_norm{layer=enc}", 1e-9) ] ]
  in
  Alcotest.(check (list string)) "fires" [ "vanishing-gradients" ] (rules findings);
  Alcotest.(check bool) "is a failure" false (Health.healthy findings)

let test_health_exploding () =
  let findings =
    Health.evaluate [ line [ ("dynamics.layer_grad_norm{layer=enc}", 5e4) ] ]
  in
  Alcotest.(check (list string)) "fires" [ "exploding-gradients" ] (rules findings);
  Alcotest.(check bool) "is a failure" false (Health.healthy findings)

let test_health_saturation_warns () =
  let findings =
    Health.evaluate [ line [ ("dynamics.saturation{act=tanh,layer=lstm}", 0.95) ] ]
  in
  Alcotest.(check (list string)) "fires" [ "saturation" ] (rules findings);
  Alcotest.(check bool) "warnings do not fail" true (Health.healthy findings)

let test_health_churn_spike () =
  let key = "dynamics.nn_churn{model=m}" in
  let findings =
    Health.evaluate [ line [ (key, 0.1) ]; line [ (key, 0.1) ]; line [ (key, 0.8) ] ]
  in
  Alcotest.(check (list string)) "fires" [ "nn-churn-spike" ] (rules findings);
  (* steady high churn is not a spike: no point is double its history *)
  let steady = Health.evaluate [ line [ (key, 0.8) ]; line [ (key, 0.8) ]; line [ (key, 0.8) ] ] in
  Alcotest.(check (list string)) "steady churn silent" [] (rules steady)

let test_health_plateau_with_drift () =
  let loss = "train.loss{model=m}" and drift = "dynamics.embed_drift{model=m}" in
  let findings =
    Health.evaluate
      [
        line [ (loss, 1.0) ];
        line [ (loss, 0.995); (drift, 0.2) ];
        line [ (loss, 1.0); (drift, 0.2) ];
      ]
  in
  Alcotest.(check (list string)) "fires" [ "loss-plateau-with-drift" ] (rules findings);
  (* a plateau with a settled embedding space is just convergence *)
  let settled =
    Health.evaluate
      [
        line [ (loss, 1.0) ];
        line [ (loss, 0.995); (drift, 0.01) ];
        line [ (loss, 1.0); (drift, 0.01) ];
      ]
  in
  Alcotest.(check (list string)) "settled plateau silent" [] (rules settled)

let test_health_clean_run () =
  let l i =
    line
      [
        ("dynamics.layer_grad_norm{layer=enc}", 0.5);
        ("dynamics.layer_update_ratio{layer=enc}", 1e-3);
        ("dynamics.saturation{act=tanh,layer=lstm}", 0.2);
        ("dynamics.nn_churn{model=m}", 0.3);
        ("dynamics.embed_drift{model=m}", 0.1);
        ("train.loss{model=m}", 2.0 /. float_of_int (i + 1));
      ]
  in
  let findings = Health.evaluate [ l 0; l 1; l 2; l 3 ] in
  Alcotest.(check (list string)) "no false positives" [] (rules findings)

let test_health_check_snapshot () =
  fresh ();
  Dynamics.record_layer_grad ~layer:"enc" 1e-9;
  let findings = Health.check_snapshot (OM.snapshot ()) in
  Alcotest.(check (list string)) "live snapshot rules" [ "vanishing-gradients" ]
    (rules findings)

(* ------------------------------------------------------------------ *)
(* [liger report] golden structure                                     *)
(* ------------------------------------------------------------------ *)

(* a 3-snapshot ledger tracking one key per tracked-series family *)
let golden_lines =
  List.map
    (fun i ->
      let t = float_of_int (i + 1) in
      line
        [
          ("train.loss{model=m}", 2.0 /. t);
          ("dynamics.layer_grad_norm{layer=enc}", 0.5 /. t);
          ("dynamics.layer_update_ratio{layer=enc}", 1e-3);
          ("dynamics.saturation{act=tanh,layer=lstm}", 0.2);
          ("dynamics.embed_drift{model=m}", 0.1 /. t);
        ])
    [ 0; 1; 2 ]

let test_report_sections_and_svgs () =
  let html = Report_html.render (run_of golden_lines) in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " section present") true
        (contains html (Printf.sprintf "<section id=\"%s\"" id)))
    [ "health"; "training"; "gradflow"; "activations"; "drift" ];
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " section absent") false
        (contains html (Printf.sprintf "<section id=\"%s\"" id)))
    [ "attention"; "profile"; "probe"; "bench"; "postmortem"; "compare" ];
  (* one sparkline per tracked series (5 keys) plus exactly one heatmap *)
  Alcotest.(check int) "sparkline count" 5 (count_sub html "<svg class=\"spark\"");
  Alcotest.(check int) "heatmap count" 1 (count_sub html "<svg class=\"heatmap\"");
  Alcotest.(check bool) "clean run passes" true (contains html "all health rules passed");
  Alcotest.(check bool) "self-contained: no script" false (contains html "<script");
  Alcotest.(check bool) "self-contained: no external refs" false
    (contains html "src=" || contains html "href=")

let test_report_determinism () =
  let a = Report_html.render (run_of golden_lines) in
  let b = Report_html.render (run_of golden_lines) in
  Alcotest.(check string) "identical inputs, identical bytes" a b

let test_report_escaping () =
  let hostile = line [ ("train.loss{model=<script>alert(1)</script>}", 1.0) ] in
  let html = Report_html.render (run_of ~label:"<evil> & \"co\"" [ hostile ]) in
  Alcotest.(check bool) "label escaped" false (contains html "<evil>");
  Alcotest.(check bool) "key escaped" false (contains html "<script");
  Alcotest.(check bool) "escaped form present" true (contains html "&lt;script&gt;")

let test_report_compare () =
  let mk label scale =
    run_of ~label
      (List.map
         (fun i ->
           line
             [
               ("train.loss{model=m}", scale *. 2.0 /. float_of_int (i + 1));
               ("dynamics.layer_grad_norm{layer=enc}", 0.5);
             ])
         [ 0; 1; 2 ])
  in
  let html = Report_html.render ~other:(mk "runB" 2.0) (mk "runA" 1.0) in
  Alcotest.(check bool) "compare section" true (contains html "<section id=\"compare\"");
  Alcotest.(check bool) "both labels in title" true
    (contains html "runA vs runB");
  (* compare mode overlays both runs: two sparklines per tracked key *)
  Alcotest.(check int) "two sparklines per series" 4 (count_sub html "<svg class=\"spark\"");
  (* the delta table carries both finals: loss 2/3 vs 4/3 -> Δ = 2/3 *)
  Alcotest.(check bool) "delta column rendered" true (contains html "0.6667")

let test_report_never_nan () =
  (* a ledger whose numbers are hostile: zero ranges and huge magnitudes —
     the page must still contain no NaN/inf literals *)
  let l = line [ ("train.loss{model=m}", 1e9); ("dynamics.layer_grad_norm{layer=e}", 1e9) ] in
  let html = Report_html.render (run_of [ l; l ]) in
  Alcotest.(check bool) "no NaN in page" false (contains html "nan");
  Alcotest.(check bool) "no inf in page" false (contains html "inf")

let () =
  Alcotest.run "dynamics"
    [
      ( "dynamics",
        [
          Alcotest.test_case "ambient layer stack" `Quick test_ambient_layer;
          Alcotest.test_case "param grouping" `Quick test_group_of_param;
          Alcotest.test_case "layer grad gauges" `Quick test_record_layer_grad;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "embedding drift and churn" `Quick test_observe_embeddings;
          Alcotest.test_case "saturation gauges" `Quick test_saturation_gauges;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "empty histogram" `Quick test_quantile_empty;
          Alcotest.test_case "single bucket" `Quick test_quantile_single_bucket;
        ] );
      ( "health",
        [
          Alcotest.test_case "vanishing gradients" `Quick test_health_vanishing;
          Alcotest.test_case "exploding gradients" `Quick test_health_exploding;
          Alcotest.test_case "saturation warns" `Quick test_health_saturation_warns;
          Alcotest.test_case "churn spike" `Quick test_health_churn_spike;
          Alcotest.test_case "plateau with drift" `Quick test_health_plateau_with_drift;
          Alcotest.test_case "clean run" `Quick test_health_clean_run;
          Alcotest.test_case "live snapshot" `Quick test_health_check_snapshot;
        ] );
      ( "report",
        [
          Alcotest.test_case "sections and svg counts" `Quick test_report_sections_and_svgs;
          Alcotest.test_case "deterministic" `Quick test_report_determinism;
          Alcotest.test_case "escaping" `Quick test_report_escaping;
          Alcotest.test_case "compare mode" `Quick test_report_compare;
          Alcotest.test_case "no non-finite literals" `Quick test_report_never_nan;
        ] );
    ]
