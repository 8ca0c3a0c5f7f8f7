(** The [corpus] workload: the corpus pipeline of [liger dataset] —
    {!Filter.run}, {!Feedback.blended} and {!Pipeline.assemble}, as
    {!Pipeline.build_naming} chains them — at the default pool size, over
    seeded Javagen draws stratified by template ({!Draw}).

    The untraced run builds one corpus after another, each from a fresh
    draw.  The traced run first builds the same rounds untraced, then
    again with the program's own spans and counters on, and checks that
    the second build produced exactly the corpus and the Table 1 drop
    counts of the first.  Per-layer figures come from the program's spans
    and counters, and from a replay of the directed phase that splits
    solver time on whether a solve succeeds. *)

open Liger_lang
module Rng = Liger_tensor.Rng
module Pipeline = Liger_dataset.Pipeline
module Javagen = Liger_dataset.Javagen
module Dstats = Liger_dataset.Stats
module Filter = Liger_testgen.Filter
module Feedback = Liger_testgen.Feedback
module Symexec = Liger_symexec.Symexec
module Common = Liger_core.Common
module Parallel = Liger_parallel.Parallel
module Metrics = Liger_obs.Metrics
module Span = Liger_obs.Span

(* Statement ids come from a process-wide counter; each round restarts it
   so that a round and its replay build byte-identical corpora. *)
let round_rng ~seed r =
  Ast.reset_sids ();
  Rng.create ((seed * 1_000_003) + r)

(** [Pipeline.build_naming] over a {!Draw.corpus} draw, with its three
    stages passed in. *)
let build ?(enc_config = Common.default_enc_config) ~draw ~filter ~blend ~assemble rng =
  let items = draw rng in
  let train_items, valid_items, test_items = Javagen.split_by_project items in
  let budget = Pipeline.budget_for enc_config in
  let filter_split split_name items =
    let kept, fstats =
      filter ~budget rng (List.map (fun (it : Javagen.item) -> it.Javagen.candidate) items)
    in
    let raw =
      Parallel.map_list
        (fun ((meth : Ast.meth), r) -> (meth, blend meth r, Common.Name meth.Ast.mname))
        kept
    in
    ( raw,
      { Dstats.split_name; original = fstats.Filter.original; filtered = fstats.Filter.filtered },
      fstats.Filter.by_reason )
  in
  let train_raw, r1, d1 = filter_split "Training" train_items in
  let valid_raw, r2, d2 = filter_split "Validation" valid_items in
  let test_raw, r3, d3 = filter_split "Test" test_items in
  let stats =
    {
      Dstats.dataset = "bench";
      rows = [ r1; r2; r3 ];
      reasons = List.fold_left Dstats.merge_reasons [] [ d1; d2; d3 ];
    }
  in
  assemble ~name:"bench" ~enc_config ~stats (train_raw, valid_raw, test_raw)

let build_plain ?enc_config ~draw ?(blend = Feedback.blended) rng =
  build ?enc_config ~draw rng
    ~filter:(fun ~budget rng cs -> Filter.run ~budget rng cs)
    ~blend ~assemble:Pipeline.assemble

(* ---------------- the traced run ---------------- *)

(* The traced run builds the same rounds through the same three stages
   with the program's own instrumentation on: the [Obs] spans that
   Filter, Feedback and Pipeline open around their work, and the [Metrics]
   counters Feedback keeps.  Only [Feedback.blended] is timed from here. *)
let build_traced ~draw rng =
  build_plain ~draw rng
    ~blend:(fun meth (r : Feedback.result) ->
      Tracer.count "testgen.kept" (float_of_int (List.length r.Feedback.traces));
      Tracer.with_ "trace.blend" (fun () -> Feedback.blended meth r))

let reason_order =
  Filter.
    [ No_compile; Uninit_use; Nonterm_loop; Unreachable_code; Div_by_zero; Dead_branch;
      External_deps; Testgen_timeout; Too_small ]

let reason_key r =
  String.map (fun c -> if c = ' ' then '_' else c) (Filter.reason_to_string r)

(* The one figure the program does not publish is how its directed phase
   splits between exploring paths and solving them, and between solves
   that find a model and solves that fail.  It comes from a replay of
   [Symexec.generate_inputs] as [Feedback.generate] calls it, on every
   candidate that reaches test generation, with each [Symexec.concretize]
   timed and split on [Some]/[None].  The replay mirrors feedback.ml
   (its symexec config) and filter.ml (its static gates, via
   {!Draw.servable}) and must change with them. *)
let directed_config = { Symexec.max_paths = 48; max_steps = 400; max_unrolls = 12 }

let directed rng (meth : Ast.meth) =
  let shape = Symexec.shape_of_params meth.Ast.params in
  let results =
    Tracer.with_ "symexec.explore" (fun () -> Symexec.explore ~config:directed_config meth ~shape)
  in
  Tracer.count "symexec.paths" (float_of_int (List.length results));
  List.iter
    (fun (r : Symexec.path_result) ->
      match r.Symexec.outcome with
      | Symexec.Sym_aborted _ -> ()
      | Symexec.Sym_returned _ ->
          let parent = Tracer.current () in
          let start = Unix.gettimeofday () in
          let args = Symexec.concretize rng meth ~shape r in
          let stop = Unix.gettimeofday () in
          let outcome = if args = None then "symexec.solve_failed" else "symexec.solve_ok" in
          Tracer.record ~parent outcome ~start ~stop)
    results

(* the directed phase of every candidate of round [r] that reaches test
   generation *)
let replay_round ~seed r =
  let rng = round_rng ~seed r in
  let candidates =
    List.filter_map
      (fun (it : Javagen.item) ->
        let c = it.Javagen.candidate in
        if (not c.Filter.uses_external) && Draw.servable c.Filter.meth then Some c.Filter.meth
        else None)
      (Draw.corpus ~seed ~round:r rng)
  in
  ignore
    (Parallel.map_rng_list rng
       (fun rng m -> Tracer.with_ "symexec.directed" (fun () -> directed rng m))
       candidates)

(* ---------------- figures and checks ---------------- *)

let examples (c : Pipeline.corpus) = c.Pipeline.train @ c.Pipeline.valid @ c.Pipeline.test
let n_kept c = List.length (examples c)

let n_paths c =
  List.fold_left (fun a (ex : Common.enc_example) -> a + Array.length ex.Common.traces) 0 (examples c)

(* the corpus with its run-dependent example ids cleared *)
let content (c : Pipeline.corpus) =
  let strip = List.map (fun (ex : Common.enc_example) -> { ex with Common.uid = 0 }) in
  (strip c.Pipeline.train, strip c.Pipeline.valid, strip c.Pipeline.test, c.Pipeline.stats)

let n_generated (c : Pipeline.corpus) = Dstats.total_original c.Pipeline.stats

(* invariants every built corpus must satisfy *)
let check_round r (c : Pipeline.corpus) =
  let st = c.Pipeline.stats in
  let dropped = List.fold_left (fun a (_, n) -> a + n) 0 st.Dstats.reasons in
  Report.check
    (Printf.sprintf "round %d: every generated method is kept or dropped once" r)
    (Dstats.total_filtered st = n_kept c && dropped + n_kept c = n_generated c);
  Report.check
    (Printf.sprintf "round %d: every kept example is well typed with 1..max_paths traces" r)
    (List.for_all
       (fun (ex : Common.enc_example) ->
         let k = Array.length ex.Common.traces in
         Typecheck.is_well_typed ex.Common.meth && k >= 1
         && k <= Common.default_enc_config.Common.max_paths)
       (examples c))

type run = { rounds : Pipeline.corpus list; wall_s : float; round_s : float list }

(* rounds until [seconds] have passed (at least one), or exactly [n] rounds *)
let run_rounds ~seed ~build_round ?n seconds =
  let t0 = Report.now () in
  let rec go r acc times =
    let stop =
      match n with Some n -> r >= n | None -> r > 0 && Report.now () -. t0 >= seconds
    in
    if stop then { rounds = List.rev acc; wall_s = Report.now () -. t0; round_s = List.rev times }
    else
      let c, dt =
        Report.time (fun () ->
            build_round ~draw:(Draw.corpus ~seed ~round:r) (round_rng ~seed r))
      in
      go (r + 1) (c :: acc) (dt :: times)
  in
  go 0 [] []

(* set-up takes about 0.1 s, so it is repeated more often than the
   other workloads' for a steady median *)
let setup () =
  Report.setup ~k:7 (fun () ->
      (* the pool, and one pass through every stage on a fixed draw *)
      ignore (Parallel.jobs ());
      let draw rng = List.filteri (fun i _ -> i < 12) (Draw.corpus ~seed:0 ~round:0 rng) in
      ignore (build_plain ~draw (Rng.create 0)))

let end_to_end ~seed ~seconds =
  let run = run_rounds ~seed ~build_round:(fun ~draw rng -> build_plain ~draw rng) seconds in
  List.iteri check_round run.rounds;
  let generated = float_of_int (List.fold_left (fun a c -> a + n_generated c) 0 run.rounds) in
  let kept = float_of_int (List.fold_left (fun a c -> a + n_kept c) 0 run.rounds) in
  let paths = float_of_int (List.fold_left (fun a c -> a + n_paths c) 0 run.rounds) in
  Report.metric "corpus.methods_per_s" "1/s" (generated /. run.wall_s);
  Report.metric "corpus.kept_share" "share" (kept /. generated);
  Report.metric "corpus.paths_per_kept" "count" (paths /. kept);
  Report.metric "corpus.kept_paths_per_s" "1/s" (paths /. run.wall_s);
  Report.note "corpus.rounds" (string_of_int (List.length run.rounds));
  Report.note "corpus.round_s" (String.concat " " (List.map (Printf.sprintf "%.2f") run.round_s))

let traced ~seed ~seconds =
  let plain = run_rounds ~seed ~build_round:(fun ~draw rng -> build_plain ~draw rng) seconds in
  let n = List.length plain.rounds in
  Metrics.reset ();
  Metrics.enable ();
  Span.reset ();
  Span.enable ();
  Parallel.Stats.reset ();
  Tracer.on := true;
  let gc0 = (Gc.quick_stat ()).Gc.minor_words in
  let traced = run_rounds ~seed ~build_round:build_traced ~n seconds in
  let minor_words = (Gc.quick_stat ()).Gc.minor_words -. gc0 in
  let p = Parallel.Stats.snapshot () in
  Span.disable ();
  let lib = Span.aggregate () in
  let snap = Metrics.snapshot () in
  Metrics.disable ();
  List.iteri
    (fun r (a, b) ->
      Report.check
        (Printf.sprintf "round %d: traced run reproduces the kept set and Table 1 drops" r)
        (content a = content b))
    (List.combine plain.rounds traced.rounds);
  for r = 0 to n - 1 do
    replay_round ~seed r
  done;
  Tracer.on := false;
  let generated = float_of_int (List.fold_left (fun a c -> a + n_generated c) 0 traced.rounds) in
  (* the program's own spans: self time, or total time for a span whose
     children are parallel tasks on other domains *)
  let lib_s field name =
    List.fold_left (fun a (g : Span.agg) -> if g.Span.agg_name = name then a +. field g else a) 0.0 lib
  in
  let lib_self = lib_s (fun g -> g.Span.self_s) and lib_total = lib_s (fun g -> g.Span.total_s) in
  Report.metric "lang.typecheck_s" "s" (lib_self "filter.typecheck");
  Report.metric "analysis.lint_s" "s" (lib_self "filter.lint");
  Report.metric "testgen.directed_s" "s" (lib_self "testgen.symexec");
  Report.metric "testgen.exec_s" "s" (lib_self "testgen.exec");
  let attempts = float_of_int (Metrics.counter_value snap "testgen.attempts") in
  Report.metric "testgen.attempts" "count" attempts;
  Report.metric "testgen.kept_per_attempt" "share" (Tracer.counter "testgen.kept" /. attempts);
  Report.metric "core.encode_s" "s" (lib_total "encode.example" +. lib_total "pipeline.vocab");
  let agg = Tracer.aggregate (Tracer.spans ()) in
  let self = Tracer.self_s agg and calls = Tracer.calls agg in
  Report.metric "trace.blend_s" "s" (self "trace.blend");
  Report.metric "symexec.explore_s" "s" (self "symexec.explore");
  Report.metric "symexec.paths" "count" (Tracer.counter "symexec.paths");
  let ok = calls "symexec.solve_ok" and bad = calls "symexec.solve_failed" in
  Report.metric "symexec.solve_ok" "count" (float_of_int ok);
  Report.metric "symexec.solve_failed" "count" (float_of_int bad);
  Report.metric "symexec.solve_ok_s" "s" (self "symexec.solve_ok");
  Report.metric "symexec.solve_failed_s" "s" (self "symexec.solve_failed");
  Report.metric "symexec.solve_useful_ratio" "share"
    (float_of_int ok /. float_of_int (max 1 (ok + bad)));
  (* the replay's directed phase, to set against the program's own
     testgen.directed_s *)
  Report.note "symexec.replay_s"
    (Printf.sprintf "%.3f"
       (Option.fold ~none:0.0 ~some:(fun a -> a.Tracer.total_s) (Hashtbl.find_opt agg "symexec.directed")));
  Report.metric "gc.minor_words_per_method" "words" (minor_words /. generated);
  let busy = Array.fold_left ( +. ) 0.0 p.Parallel.Stats.busy_seconds in
  Report.metric "parallel.domain_busy_s" "s" busy;
  Report.metric "parallel.utilization" "share"
    (busy /. (p.Parallel.Stats.wall_seconds *. float_of_int (Parallel.jobs ())));
  List.iter
    (fun reason ->
      let n =
        List.fold_left
          (fun a (c : Pipeline.corpus) ->
            a + Option.value ~default:0 (List.assoc_opt reason c.Pipeline.stats.Dstats.reasons))
          0 traced.rounds
      in
      Report.metric ("filter.dropped." ^ reason_key reason) "count" (float_of_int n))
    reason_order;
  Report.metric "trace.overhead_s" "s" (traced.wall_s -. plain.wall_s);
  Report.metric "trace.overhead_share" "share" ((traced.wall_s -. plain.wall_s) /. plain.wall_s);
  if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
  Out_channel.with_open_bin (Printf.sprintf ".bench_out/obs-corpus-%d.json" seed) (fun oc ->
      output_string oc (Span.to_chrome_json ()))
