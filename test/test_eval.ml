(* Additional evaluation-layer tests: training-loop edge cases, report
   rendering, experiment plumbing and cross-layer invariants that the other
   suites do not cover. *)

open Liger_tensor
open Liger_core
open Liger_eval
open Liger_dataset

let enc = { Common.default_enc_config with Common.max_paths = 3; max_concrete = 2; max_steps = 10 }

let corpus =
  lazy (Pipeline.build_naming ~enc_config:enc (Rng.create 8787) ~name:"eval-corpus" ~n:40)

(* ------------------------------------------------------------------ *)
(* Train loop edges                                                    *)
(* ------------------------------------------------------------------ *)

let test_fit_empty_train () =
  let c = Lazy.force corpus in
  let wrapper, _ =
    Zoo.liger
      ~config:{ Liger_model.default_config with Liger_model.dim = 6 }
      ~vocab:c.Pipeline.vocab Liger_model.Naming
  in
  let history =
    Train.fit
      ~options:{ Train.default_options with Train.epochs = 1 }
      (Rng.create 1) wrapper ~train:[] ~valid:(List.filteri (fun i _ -> i < 2) c.Pipeline.valid)
  in
  Alcotest.(check int) "one epoch recorded" 1 (List.length history.Train.train_losses)

let test_eval_every_skips_validation () =
  let c = Lazy.force corpus in
  let wrapper, _ =
    Zoo.liger
      ~config:{ Liger_model.default_config with Liger_model.dim = 6 }
      ~vocab:c.Pipeline.vocab Liger_model.Naming
  in
  let train = List.filteri (fun i _ -> i < 4) c.Pipeline.train in
  let valid = List.filteri (fun i _ -> i < 2) c.Pipeline.valid in
  let history =
    Train.fit
      ~options:{ Train.default_options with Train.epochs = 4; eval_every = 2 }
      (Rng.create 2) wrapper ~train ~valid
  in
  Alcotest.(check int) "half the validations" 2 (List.length history.Train.valid_scores)

let test_score_empty_examples () =
  let c = Lazy.force corpus in
  let wrapper, _ =
    Zoo.liger
      ~config:{ Liger_model.default_config with Liger_model.dim = 6 }
      ~vocab:c.Pipeline.vocab Liger_model.Naming
  in
  Alcotest.(check (float 0.0)) "empty -> 0" 0.0 (Train.score wrapper [])

(* Padding share of a hand-built chunk: traces of 3 and 1 steps in one
   example and 2 in the other run as 3 lanes of 3 steps, 9 slots of which
   6 are real, so a third is padding. *)
let test_pad_share () =
  let c = Lazy.force corpus in
  let base = List.hd c.Pipeline.train in
  let step = base.Common.traces.(0).Common.steps.(0) in
  let trace n = { Common.steps = Array.make n step; n_concrete = 1; n_lines = 0 } in
  let ex lens = { base with Common.traces = Array.of_list (List.map trace lens) } in
  let chunk = [| ex [ 3; 1 ]; ex [ 2 ] |] in
  Alcotest.(check (float 1e-12)) "1 - 6/9" (1.0 /. 3.0) (Train.pad_share chunk);
  Alcotest.(check (float 0.0)) "equal lengths" 0.0 (Train.pad_share [| ex [ 2; 2 ] |]);
  Alcotest.(check (float 0.0)) "no traces" 0.0 (Train.pad_share [| ex [] |]);
  (* fit publishes the gauge per chunk while metrics are on *)
  let module OM = Liger_obs.Metrics in
  OM.enable ();
  OM.reset ();
  Fun.protect ~finally:OM.disable (fun () ->
      let wrapper, _ =
        Zoo.liger
          ~config:{ Liger_model.default_config with Liger_model.dim = 6 }
          ~vocab:c.Pipeline.vocab Liger_model.Naming
      in
      ignore
        (Train.fit
           ~options:{ Train.default_options with Train.epochs = 1; batch_size = 2 }
           (Rng.create 3) wrapper ~train:(Array.to_list chunk) ~valid:[]);
      Alcotest.(check (option (float 1e-12)))
        "train.pad_share gauge" (Some (1.0 /. 3.0))
        (OM.gauge_value (OM.snapshot ()) "train.pad_share"))

(* ------------------------------------------------------------------ *)
(* Metrics edge cases                                                  *)
(* ------------------------------------------------------------------ *)

let test_metrics_empty_prediction () =
  let p = Metrics.name_prf [ ([], [ "a" ]) ] in
  Alcotest.(check (float 0.0)) "precision 0" 0.0 p.Metrics.precision;
  Alcotest.(check (float 0.0)) "recall 0" 0.0 p.Metrics.recall;
  Alcotest.(check (float 0.0)) "f1 0" 0.0 p.Metrics.f1

let test_metrics_empty_set () =
  let p = Metrics.name_prf [] in
  Alcotest.(check (float 0.0)) "vacuous" 0.0 p.Metrics.f1;
  Alcotest.(check (float 0.0)) "empty accuracy" 0.0 (Metrics.accuracy []);
  Alcotest.(check (float 0.0)) "empty macro f1" 0.0 (Metrics.macro_f1 [])

let test_metrics_duplicate_tokens () =
  (* prediction with a duplicated correct token: one counts, one is fp *)
  let p = Metrics.name_prf [ ([ "sum"; "sum" ], [ "sum"; "array" ]) ] in
  Alcotest.(check (float 1e-9)) "precision 1/2" 0.5 p.Metrics.precision;
  Alcotest.(check (float 1e-9)) "recall 1/2" 0.5 p.Metrics.recall

(* ------------------------------------------------------------------ *)
(* Views and sweeps                                                    *)
(* ------------------------------------------------------------------ *)

let test_view_monotone_executions () =
  let c = Lazy.force corpus in
  List.iter
    (fun ex ->
      let prev = ref 0 in
      for n = 1 to 4 do
        let e = Common.executions_in_view { Common.n_paths = max_int; n_concrete = n } ex in
        Alcotest.(check bool) "monotone in concrete" true (e >= !prev);
        prev := e
      done;
      let prev = ref 0 in
      for p = 1 to 5 do
        let e = Common.executions_in_view { Common.n_paths = p; n_concrete = max_int } ex in
        Alcotest.(check bool) "monotone in paths" true (e >= !prev);
        prev := e
      done)
    (Lazy.force corpus).Pipeline.train |> ignore;
  ignore c

let test_run_result_records_view_stats () =
  let scale =
    { Experiments.quick with Experiments.med_n = 40; epochs = 1; dim = 6;
      concrete_points = [ 2; 1 ]; symbolic_points = [ 2; 1 ]; enc }
  in
  let ctx = Experiments.create_ctx ~scale () in
  let full = Experiments.run ctx ~corpus:`Med ~kind:Experiments.liger_full ~view:Common.full_view in
  let reduced =
    Experiments.run ctx ~corpus:`Med ~kind:Experiments.liger_full
      ~view:{ Common.n_paths = 1; n_concrete = 1 }
  in
  Alcotest.(check bool) "fewer executions under reduction" true
    (reduced.Experiments.avg_executions < full.Experiments.avg_executions);
  Alcotest.(check bool) "fewer paths under reduction" true
    (reduced.Experiments.avg_paths <= full.Experiments.avg_paths);
  Alcotest.(check bool) "score defined" true
    (Float.is_finite (Experiments.score_of full))

let test_view_normalization_hits_cache () =
  let scale =
    { Experiments.quick with Experiments.med_n = 40; epochs = 1; dim = 6;
      concrete_points = [ 2; 1 ]; symbolic_points = [ 2; 1 ]; enc }
  in
  let ctx = Experiments.create_ctx ~scale () in
  let a = Experiments.run ctx ~corpus:`Med ~kind:Experiments.liger_full ~view:Common.full_view in
  (* a view at the caps must be the same cached run as full_view *)
  let b =
    Experiments.run ctx ~corpus:`Med ~kind:Experiments.liger_full
      ~view:{ Common.n_paths = enc.Common.max_paths; n_concrete = enc.Common.max_concrete }
  in
  Alcotest.(check bool) "normalized view cached" true (a == b)

(* ------------------------------------------------------------------ *)
(* Report rendering (smoke: must not raise, must mention the models)   *)
(* ------------------------------------------------------------------ *)

let capture f =
  let buf = Filename.temp_file "liger" ".out" in
  let fd = Unix.openfile buf [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    f;
  let ic = open_in buf in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove buf;
  s

(* ------------------------------------------------------------------ *)
(* Semantic probing                                                    *)
(* ------------------------------------------------------------------ *)

let test_probe_readout_smoke () =
  (* an (untrained) frozen encoder still yields a full probe report: every
     task with data gets a row, counts are positive and scores are rates *)
  let c = Lazy.force corpus in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let _, model =
    Zoo.liger
      ~config:{ Liger_model.default_config with Liger_model.dim = 6 }
      ~vocab:c.Pipeline.vocab Liger_model.Naming
  in
  let report =
    Probe.probe ~epochs:3 (Rng.create 3) (Probe.of_liger model)
      ~train:(take 12 c.Pipeline.train) ~test:(take 6 c.Pipeline.valid)
  in
  Alcotest.(check string) "model name" "LiGer" report.Probe.model;
  Alcotest.(check bool) "at least three tasks" true (List.length report.Probe.rows >= 3);
  List.iter
    (fun (r : Probe.row) ->
      Alcotest.(check bool) "train examples" true (r.Probe.r_train > 0);
      Alcotest.(check bool) "test examples" true (r.Probe.r_test > 0);
      Alcotest.(check bool) "majority is a rate" true
        (r.Probe.r_majority >= 0.0 && r.Probe.r_majority <= 1.0);
      Alcotest.(check bool) "accuracy is a rate" true
        (r.Probe.r_accuracy >= 0.0 && r.Probe.r_accuracy <= 1.0))
    report.Probe.rows;
  let table = Probe.render [ report ] in
  Alcotest.(check string) "table header" "task" (String.sub table 0 4);
  Alcotest.(check int) "one line per row" (2 + List.length report.Probe.rows)
    (List.length (String.split_on_char '\n' table))

let test_report_table2_renders () =
  let scale =
    { Experiments.quick with Experiments.med_n = 40; Experiments.large_n = 40;
      epochs = 1; dim = 6; concrete_points = [ 1 ]; symbolic_points = [ 1 ]; enc }
  in
  let ctx = Experiments.create_ctx ~scale () in
  let fake =
    [ ("Java-med*",
       [ Experiments.run ctx ~corpus:`Med ~kind:Experiments.liger_full ~view:Common.full_view ]) ]
  in
  let out = capture (fun () -> Report.print_table2 fake) in
  Alcotest.(check bool) "mentions model" true
    (let contains hay needle =
       let n = String.length needle and h = String.length hay in
       let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
       go 0
     in
     contains out "LiGer" && contains out "Precision")

let () =
  Alcotest.run "eval"
    [
      ( "train",
        [
          Alcotest.test_case "empty train" `Slow test_fit_empty_train;
          Alcotest.test_case "eval_every" `Slow test_eval_every_skips_validation;
          Alcotest.test_case "empty score" `Slow test_score_empty_examples;
          Alcotest.test_case "pad share of a chunk" `Quick test_pad_share;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "empty prediction" `Quick test_metrics_empty_prediction;
          Alcotest.test_case "empty set" `Quick test_metrics_empty_set;
          Alcotest.test_case "duplicate tokens" `Quick test_metrics_duplicate_tokens;
        ] );
      ( "views",
        [
          Alcotest.test_case "monotone executions" `Slow test_view_monotone_executions;
          Alcotest.test_case "view stats recorded" `Slow test_run_result_records_view_stats;
          Alcotest.test_case "view normalization" `Slow test_view_normalization_hits_cache;
        ] );
      ("report", [ Alcotest.test_case "table2 renders" `Slow test_report_table2_renders ]);
      ("probe", [ Alcotest.test_case "readout smoke" `Slow test_probe_readout_smoke ]);
    ]
