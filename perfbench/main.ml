(** The repository benchmark: one command, three workloads.

    {v main.exe --workload (corpus|train|serve-mixed) --seed N --seconds S --trace (0|1) v}

    With [--trace 0] the run measures the workload's end-to-end metrics;
    with [--trace 1] it replays the workload through timed calls into each
    layer and reports per-layer metrics and the tracing overhead.  Every
    run checks the workload's outputs.  Metrics, provenance and checks are
    printed one per line; the last line of standard output is one JSON
    object: [correct], [attempted], [failed] and the metrics the run
    type promises (see BENCHMARK.json). *)

let usage = "main.exe --workload (corpus|train|serve-mixed) --seed N --seconds S --trace (0|1)"

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string n; go rest
    | "--seconds" :: n :: rest -> seconds := int_of_string n; go rest
    | "--trace" :: n :: rest -> trace := int_of_string n; go rest
    | [] -> ()
    | arg :: _ -> failwith ("unexpected argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then failwith usage;
  (!workload, !seed, float_of_int !seconds, !trace = 1)

(* ---------------- provenance ---------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* the commit checked out, read from .git without running git (the
   benchmark also runs in exported trees that have no .git) *)
let git_rev () =
  (* a ref is a loose file, or after [git gc] a line "<rev> <ref>" of
     .git/packed-refs *)
  let packed ref =
    String.split_on_char '\n' (read_file ".git/packed-refs")
    |> List.find_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ rev; r ] when r = ref -> Some rev
           | _ -> None)
    |> Option.value ~default:"none"
  in
  try
    let head = String.trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let ref = String.sub head 5 (String.length head - 5) in
      try String.trim (read_file (Filename.concat ".git" ref)) with Sys_error _ -> packed ref
    else head
  with Sys_error _ -> "none"

(* digest of the program's sources, which identifies the code measured
   where there is no git metadata *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || f = "dune" then [ p ]
           else [])
  in
  try Digest.to_hex (Digest.string (String.concat "\000" (List.map read_file (files "lib"))))
  with Sys_error _ -> "none"

let provenance ~workload ~seed ~trace =
  [
    ("workload", workload);
    ("seed", string_of_int seed);
    ("trace", string_of_bool trace);
    ("git_rev", git_rev ());
    ("source_digest", source_digest ());
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("pool_size", string_of_int (Liger_parallel.Parallel.jobs ()));
  ]

(* ---------------- output ---------------- *)

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Tracer.json_string k ^ ":" ^ v) fields) ^ "}"

let print_result ~names =
  List.iter
    (fun (k, v) -> Printf.printf "note %s %s\n" k v)
    (List.rev !Report.notes);
  List.iter
    (fun (name, (v, unit)) -> Printf.printf "metric %s %.6g %s\n" name v unit)
    (List.rev !Report.metrics);
  let metrics =
    List.map
      (fun name ->
        let v, unit = List.assoc name !Report.metrics in
        (* JSON has no NaN: a figure that could not be measured fails a check *)
        Report.check (name ^ " is a finite number") (Float.is_finite v);
        let v = if Float.is_finite v then v else 0.0 in
        (name, json_obj [ ("value", Printf.sprintf "%.17g" v); ("unit", Tracer.json_string unit) ]))
      names
  in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (!Report.failed = 0));
         ("attempted", string_of_int !Report.attempted);
         ("failed", string_of_int !Report.failed);
         ("metrics", json_obj metrics);
       ])

(* End-to-end metrics: the same four for every workload, each standing
   for the workload's own figure (BENCHMARK.md gives the reasons). *)
let end_to_end = [ "setup_s"; "primary_per_s"; "secondary_per_s"; "ok_share" ]

let slots = function
  | "corpus" -> [ "corpus.methods_per_s"; "corpus.kept_paths_per_s"; "corpus.kept_share" ]
  | "train" ->
      [ "train.table2_examples_per_s"; "train.batched_examples_per_s"; "train.finite_step_share" ]
  | _ -> [ "serve.miss_service_per_s"; "serve.miss_busy_per_s"; "serve.slo_share" ]

let per_layer =
  let models = [ "LiGer"; "DYPRO"; "code2vec"; "code2seq" ] in
  [
    ("lang.typecheck_s", "s"); ("analysis.lint_s", "s"); ("symexec.explore_s", "s");
    ("symexec.paths", "count"); ("symexec.solve_ok", "count"); ("symexec.solve_failed", "count");
    ("symexec.solve_ok_s", "s"); ("symexec.solve_failed_s", "s");
    ("symexec.solve_useful_ratio", "share"); ("testgen.directed_s", "s"); ("testgen.exec_s", "s");
    ("testgen.attempts", "count"); ("testgen.kept_per_attempt", "share");
    ("trace.blend_s", "s"); ("core.encode_s", "s"); ("parallel.utilization", "share");
    ("parallel.domain_busy_s", "s"); ("gc.minor_words_per_method", "words");
  ]
  @ List.map (fun r -> ("filter.dropped." ^ Corpus_wl.reason_key r, "count")) Corpus_wl.reason_order
  @ List.concat_map
      (fun m -> List.map (fun p -> (Printf.sprintf "eval.%s.%s_s" m p, "s")) Train_wl.parts)
      models
  @ [
      ("tensor.batched.forward_s", "s"); ("tensor.batched.backward_s", "s");
      ("tensor.batched.optimizer_s", "s"); ("tensor.batched.ops_per_example", "count");
      ("tensor.batched.bytes_per_example", "B"); ("tensor.batched.pad_share", "share");
      ("gc.minor_words_per_example", "words");
      ("serve.prepare_s", "s"); ("serve.cache_lookup_s", "s"); ("serve.cache_hit_ratio", "share");
      ("serve.encode_s", "s"); ("serve.queue_wait_s", "s"); ("serve.forward_s", "s");
      ("serve.lanes_per_batch", "count"); ("serve.serialize_s", "s"); ("serve.transport_s", "s");
      ("serve.gen_lag_ms", "ms"); ("serve.expired", "count"); ("serve.rejected", "count");
      ("serve.hit_p50_ms", "ms"); ("serve.hit_tail_ms", "ms"); ("serve.miss_p50_ms", "ms");
      ("serve.miss_tail_ms", "ms");
      ("mem.peak_rss_mb", "MB"); ("trace.overhead_s", "s"); ("trace.overhead_share", "share");
    ]

let () =
  let workload, seed, seconds, trace = parse_args () in
  if not (List.mem workload [ "corpus"; "train"; "serve-mixed" ]) then failwith usage;
  List.iter (fun (k, v) -> Report.note k v) (provenance ~workload ~seed ~trace);
  let steal0 = Report.steal_s () in
  (match (workload, trace) with
  | "corpus", false ->
      Corpus_wl.setup ();
      Corpus_wl.end_to_end ~seed ~seconds
  | "corpus", true ->
      Corpus_wl.setup ();
      Corpus_wl.traced ~seed ~seconds
  | "train", false ->
      Train_wl.end_to_end (Train_wl.setup ~seed) ~seconds
  | "train", true -> Train_wl.traced (Train_wl.setup ~seed)
  | "serve-mixed", false -> Serve_wl.end_to_end ~seed ~seconds
  | _ -> Serve_wl.traced ~seed ~seconds);
  Report.metric "mem.peak_rss_mb" "MB" (Report.peak_rss_mb ());
  Report.note "host_steal_s" (Printf.sprintf "%.2f" (Report.steal_s () -. steal0));
  if trace then begin
    if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
    Tracer.write (Printf.sprintf ".bench_out/spans-%s-%d.jsonl" workload seed);
    (* a layer this workload does not exercise reads 0 *)
    List.iter
      (fun (name, unit) -> if not (List.mem_assoc name !Report.metrics) then Report.metric name unit 0.0)
      per_layer;
    print_result ~names:(List.map fst per_layer)
  end
  else begin
    List.iter2
      (fun slot name ->
        let v, _ = List.assoc name !Report.metrics in
        Report.metric slot (if slot = "ok_share" then "share" else "1/s") v)
      (List.tl end_to_end) (slots workload);
    print_result ~names:end_to_end
  end
