(** The observability front door: logging setup, env-var wiring for the
    {!Metrics} registry and {!Span} tracer, the human-readable end-of-run
    report, and the readers behind [liger stats].

    Conventions used across the pipeline (all optional — a metric that was
    never recorded simply doesn't appear in the snapshot):

    - [parallel.*] — pool telemetry (tasks, batches, wall and per-domain
      busy seconds), recorded by {!Liger_parallel.Parallel}.
    - [filter.kept] / [filter.dropped{reason=...}] — Table-1 verdicts.
    - [testgen.*] — Randoop-analogue attempts/crashes/timeouts.
    - [encode.*], [pipeline.*], [coset.*] — corpus construction.
    - [train.*] — per-epoch training telemetry (loss, valid score,
      grad-norm histogram, skipped steps, epoch seconds).
    - [experiments.cache_hits/misses] — sweep cache effectiveness. *)

module Json = Json
module Metrics = Metrics
module Span = Span
module Profile = Profile
module Bench_store = Bench_store
module Recorder = Recorder
module Timeseries = Timeseries
module Openmetrics = Openmetrics
module Dynamics = Dynamics
module Health = Health
module Report_html = Report_html

(* ---------------- logging ---------------- *)

(** [LIGER_LOG] levels; [quiet] disables logging entirely. *)
let level_of_string = function
  | "quiet" -> Ok None
  | "error" -> Ok (Some Logs.Error)
  | "warn" | "warning" -> Ok (Some Logs.Warning)
  | "info" -> Ok (Some Logs.Info)
  | "debug" -> Ok (Some Logs.Debug)
  | s -> Error s

let reporter ppf =
  let report src level ~over k msgf =
    let k _ =
      over ();
      k ()
    in
    msgf @@ fun ?header ?tags fmt ->
    ignore header;
    ignore tags;
    let t = Unix.gettimeofday () in
    let tm = Unix.localtime t in
    let ms = int_of_float (Float.rem t 1.0 *. 1000.0) in
    Format.kfprintf k ppf
      ("[%02d:%02d:%02d.%03d] [%a] [%s] @[" ^^ fmt ^^ "@]@.")
      tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec ms Logs.pp_level level
      (Logs.Src.name src)
  in
  { Logs.report }

(** Install a [Logs] reporter (timestamps + level + source prefix) writing
    to [out] (stderr by default), at the level named by [LIGER_LOG]
    ([quiet|error|warn|info|debug]; default [warn]).  Without this call the
    [Logs.info]/[Logs.warn] sprinkled through the pipeline go nowhere. *)
let init_logging ?(out = Format.err_formatter) () =
  let level =
    match Sys.getenv_opt "LIGER_LOG" with
    | None -> Some Logs.Warning
    | Some s -> (
        match level_of_string (String.lowercase_ascii (String.trim s)) with
        | Ok level -> level
        | Error s ->
            Printf.eprintf
              "liger: ignoring LIGER_LOG=%S (expected quiet|error|warn|info|debug)\n%!" s;
            Some Logs.Warning)
  in
  Logs.set_level ~all:true level;
  Logs.set_reporter (reporter out)

(* ---------------- the run directory ---------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** This process's run id: [LIGER_RUN_ID] when set (pin it for
    deterministic CI paths), otherwise timestamp + pid. *)
let run_id =
  lazy
    (match Sys.getenv_opt "LIGER_RUN_ID" with
    | Some s when String.trim s <> "" -> String.trim s
    | _ ->
        let t = Unix.gettimeofday () in
        let tm = Unix.localtime t in
        Printf.sprintf "%04d%02d%02d-%02d%02d%02d-%d" (tm.Unix.tm_year + 1900)
          (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
          (Unix.getpid ()))

(** Root under which run directories are created: [LIGER_RUNS_DIR],
    default ["runs"]. *)
let runs_root () =
  match Sys.getenv_opt "LIGER_RUNS_DIR" with
  | Some s when String.trim s <> "" -> String.trim s
  | _ -> "runs"

(** The per-run telemetry directory [runs/<run-id>/], created on first
    use.  Default telemetry outputs land here instead of strewing the
    repository root; a run that configures no telemetry never creates
    it. *)
let run_dir () =
  let dir = Filename.concat (runs_root ()) (Lazy.force run_id) in
  mkdir_p dir;
  dir

let in_run_dir name = Filename.concat (run_dir ()) name

(* ---------------- failpoints (crash injection) ---------------- *)

exception Injected_failure of string

(* [LIGER_FAILPOINT=site[:n]] arms one failpoint: the [n]-th time
   execution passes [failpoint site] (default: the first), it raises
   {!Injected_failure} — CI uses this to prove a mid-train crash leaves
   a postmortem artifact. *)
let failpoint_spec : (string * int) option ref = ref None
let failpoint_armed = ref false
let failpoint_hits : (string, int ref) Hashtbl.t = Hashtbl.create 4

let parse_failpoint s =
  match String.index_opt s ':' with
  | None -> Some (String.trim s, 1)
  | Some i -> (
      let site = String.trim (String.sub s 0 i) in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some n when n > 0 -> Some (site, n)
      | _ ->
          Printf.eprintf "liger: ignoring LIGER_FAILPOINT=%S (expected site[:n])\n%!" s;
          None)

(** Arm ([Some "site[:n]"]) or disarm ([None]) the failpoint, overriding
    the environment (tests). *)
let set_failpoint spec =
  failpoint_armed := true;
  Hashtbl.reset failpoint_hits;
  failpoint_spec := Option.bind spec parse_failpoint

let failpoint site =
  if not !failpoint_armed then begin
    failpoint_armed := true;
    match Sys.getenv_opt "LIGER_FAILPOINT" with
    | Some s when String.trim s <> "" -> failpoint_spec := parse_failpoint s
    | _ -> ()
  end;
  match !failpoint_spec with
  | Some (s, n) when s = site ->
      let hits =
        match Hashtbl.find_opt failpoint_hits site with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.add failpoint_hits site r;
            r
      in
      incr hits;
      if !hits = n then begin
        Logs.err (fun m -> m "failpoint %s fired (hit %d)" site n);
        raise (Injected_failure site)
      end
  | _ -> ()

(* ---------------- enabling + exit dumps ---------------- *)

let ledger_path = ref None
let trace_path = ref None
let exit_hook = ref false
let trace_drops_published = ref false

(** Write whatever outputs were configured (also runs automatically on
    exit).  The periodic emitter is stopped first, so the run ledger's
    final enriched tick is its last line.  Before that tick, when
    profiling is on, the profiler's per-op/per-layer totals are published
    into the registry, and any span events lost to the trace cap are
    published as [obs.trace_events_dropped]. *)
let flush () =
  Timeseries.stop ();
  if Profile.enabled () then Profile.publish ();
  (let d = Span.dropped_events () in
   if d > 0 && not !trace_drops_published then begin
     trace_drops_published := true;
     Metrics.add "obs.trace_events_dropped" d
   end);
  (match !ledger_path with Some path -> Timeseries.tick ~final:true ~path () | None -> ());
  match !trace_path with Some p -> Span.write p | None -> ()

(* ---------------- postmortem dumps ---------------- *)

let postmortem_path = ref None
let crash_dumped = ref false

(** Dump the flight recorder (last-N events plus a final metrics
    snapshot) to the run directory — called on uncaught exceptions,
    fatal signals, and training aborts.  Idempotent per process (the
    first reason wins); a no-op when the recorder is off. *)
let crash_dump ~reason () =
  if Recorder.enabled () && not !crash_dumped then begin
    crash_dumped := true;
    try
      if Profile.enabled () then Profile.publish ();
      Timeseries.enrich ();
      let path =
        match !postmortem_path with Some p -> p | None -> in_run_dir "postmortem.json"
      in
      Recorder.write ~run_id:(Lazy.force run_id) ~reason path;
      Printf.eprintf "liger: flight recorder dumped to %s (%s)\n%!" path reason
    with e -> Printf.eprintf "liger: postmortem dump failed: %s\n%!" (Printexc.to_string e)
  end

let handlers_installed = ref false

(* An uncaught exception or fatal signal dumps the recorder before the
   default handling proceeds; [at_exit] still runs on uncaught
   exceptions, so the configured metrics/trace files are written too. *)
let install_crash_handlers () =
  if not !handlers_installed then begin
    handlers_installed := true;
    Printexc.set_uncaught_exception_handler (fun exn bt ->
        crash_dump ~reason:("uncaught exception: " ^ Printexc.to_string exn) ();
        Printexc.default_uncaught_exception_handler exn bt);
    List.iter
      (fun (signal, code, name) ->
        try
          Sys.set_signal signal
            (Sys.Signal_handle
               (fun _ ->
                 crash_dump ~reason:("fatal signal " ^ name) ();
                 exit code))
        with Invalid_argument _ | Sys_error _ -> ())
      [ (Sys.sigterm, 143, "SIGTERM"); (Sys.sigint, 130, "SIGINT") ]
  end

let truthy s =
  match String.lowercase_ascii (String.trim s) with
  | "1" | "true" | "yes" | "on" -> true
  | _ -> false

let falsy s =
  match String.lowercase_ascii (String.trim s) with
  | "0" | "false" | "no" | "off" -> true
  | _ -> false

(** Resolve the telemetry outputs — explicit arguments (CLI flags) win over
    the environment — enable the corresponding subsystems, and arrange for
    the files to be written on exit.

    - Metrics are on when any of these is set: [metrics_out] /
      [LIGER_METRICS_OUT], [LIGER_METRICS=1], [profile] /
      [LIGER_PROFILE=1], [dynamics] / [LIGER_DYNAMICS=1], or
      [metrics_every] / [LIGER_METRICS_EVERY].  A metrics-enabled run
      writes one run ledger ({!Timeseries}): [metrics_out] names it,
      otherwise it is [runs/<run-id>/metrics.jsonl].  The exit flush
      appends the final snapshot; [metrics_every] (seconds) adds periodic
      snapshots before it.
    - [profile] turns on the model profiler (its totals are published
      into the final snapshot); [dynamics] turns on the {!Dynamics}
      training-dynamics streams (per-layer gradient flow, saturation,
      attention entropy, embedding drift).
    - [trace_out] / [LIGER_TRACE_OUT] names a Chrome trace file;
      [LIGER_TRACE=1] writes [runs/<run-id>/trace.json].
    - The {!Recorder} flight ring turns on whenever any of the above is
      configured, or explicitly via [LIGER_FLIGHT=1]; [LIGER_FLIGHT=0]
      forces it off.  With the recorder on, crash handlers arrange a
      postmortem dump into the run directory.

    With nothing configured this is a no-op and the whole telemetry layer
    stays disabled. *)
let init ?metrics_out ?trace_out ?metrics_every ?(profile = false) ?(dynamics = false) () =
  let pick arg env = match arg with Some _ as p -> p | None -> Sys.getenv_opt env in
  let env_truthy env = match Sys.getenv_opt env with Some s -> truthy s | None -> false in
  let every =
    match metrics_every with
    | Some e when e > 0.0 -> Some e
    | Some _ -> None
    | None -> (
        match Sys.getenv_opt "LIGER_METRICS_EVERY" with
        | None -> None
        | Some s -> (
            match float_of_string_opt (String.trim s) with
            | Some e when e > 0.0 -> Some e
            | _ ->
                Printf.eprintf "liger: ignoring LIGER_METRICS_EVERY=%S (expected seconds > 0)\n%!" s;
                None))
  in
  if dynamics || env_truthy "LIGER_DYNAMICS" then Dynamics.enable ();
  if profile || env_truthy "LIGER_PROFILE" then Profile.enable ();
  let metrics_out = pick metrics_out "LIGER_METRICS_OUT" in
  (match metrics_out with
  | Some p -> ledger_path := Some p
  | None ->
      if
        !ledger_path = None
        && (env_truthy "LIGER_METRICS" || Dynamics.on () || Profile.enabled () || every <> None)
      then ledger_path := Some (in_run_dir "metrics.jsonl"));
  (match !ledger_path with
  | Some path ->
      Metrics.enable ();
      Option.iter (fun every -> Timeseries.start ~every ~path) every
  | None -> ());
  (match pick trace_out "LIGER_TRACE_OUT" with
  | Some p ->
      trace_path := Some p;
      Span.enable ()
  | None -> ());
  (if env_truthy "LIGER_TRACE" then begin
     Span.enable ();
     if !trace_path = None then trace_path := Some (in_run_dir "trace.json")
   end);
  let any_configured = !ledger_path <> None || !trace_path <> None in
  (match Sys.getenv_opt "LIGER_FLIGHT" with
  | Some s when truthy s -> Recorder.enable ()
  | Some s when falsy s -> Recorder.disable ()
  | _ -> if any_configured then Recorder.enable ());
  if Recorder.enabled () then install_crash_handlers ();
  if any_configured && not !exit_hook then begin
    exit_hook := true;
    at_exit flush
  end

let enabled () = Metrics.enabled () || Span.enabled () || Profile.enabled ()

(* ---------------- the end-of-run report ---------------- *)

let buf_table buf rows =
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w cell -> max w (String.length cell)) ws row)
      (List.map String.length (List.hd rows))
      rows
  in
  List.iter
    (fun row ->
      Buffer.add_string buf "  ";
      List.iteri
        (fun i cell ->
          let w = List.nth widths i in
          Buffer.add_string buf (if i = 0 then Printf.sprintf "%-*s" w cell else Printf.sprintf "  %*s" w cell))
        row;
      Buffer.add_char buf '\n')
    rows

(** The human-readable end-of-run report: top spans by self time, pool
    utilization, and the Table-1 drop-reason tally — each section only when
    its data was recorded. *)
let report () =
  let buf = Buffer.create 1024 in
  let snap = Metrics.snapshot () in
  Buffer.add_string buf "== observability report ==\n";
  (let d = Span.dropped_events () in
   if d > 0 then
     Buffer.add_string buf
       (Printf.sprintf
          "WARNING: %d span events dropped at the trace buffer cap (%d per domain; raise LIGER_TRACE_CAP)\n"
          d (Span.capacity ())));
  (* top spans by self time *)
  (match Span.aggregate () with
  | [] -> ()
  | aggs ->
      Buffer.add_string buf "top spans by self time:\n";
      let top = List.filteri (fun i _ -> i < 12) aggs in
      buf_table buf
        ([ "span"; "count"; "total s"; "self s" ]
        :: List.map
             (fun (a : Span.agg) ->
               [ a.Span.agg_name; string_of_int a.Span.agg_count;
                 Printf.sprintf "%.3f" a.Span.total_s; Printf.sprintf "%.3f" a.Span.self_s ])
             top));
  (* pool utilization *)
  let busy = Metrics.entries_with snap "parallel.busy_seconds" in
  let wall = Metrics.fcounter_value snap "parallel.wall_seconds" in
  (if busy <> [] && wall > 0.0 then begin
     let lanes = List.length busy in
     let total_busy =
       List.fold_left
         (fun acc (e : Metrics.entry) ->
           match e.Metrics.e_value with Metrics.F x -> acc +. x | _ -> acc)
         0.0 busy
     in
     Buffer.add_string buf
       (Printf.sprintf "pool utilization: %.1f%% (%.2fs busy / %.2fs wall x %d lanes; %d tasks in %d batches)\n"
          (100.0 *. total_busy /. (wall *. float_of_int lanes))
          total_busy wall lanes
          (Metrics.counter_value snap "parallel.tasks")
          (Metrics.counter_value snap "parallel.batches"))
   end);
  (* drop reasons *)
  let dropped = Metrics.entries_with snap "filter.dropped" in
  (if dropped <> [] then begin
     Buffer.add_string buf "filter verdicts:\n";
     let rows =
       [ "kept"; string_of_int (Metrics.counter_value snap "filter.kept") ]
       :: List.map
            (fun (e : Metrics.entry) ->
              let reason =
                match e.Metrics.e_labels with (_, v) :: _ -> v | [] -> "(unlabeled)"
              in
              let n = match e.Metrics.e_value with Metrics.C n -> n | _ -> 0 in
              [ "dropped: " ^ reason; string_of_int n ])
            dropped
     in
     buf_table buf ([ "verdict"; "methods" ] :: rows)
   end);
  (* training *)
  (match Metrics.hist_view snap "train.grad_norm" with
  | Some h when h.Metrics.count > 0 ->
      Buffer.add_string buf
        (Printf.sprintf "training: %d steps (%d skipped), grad-norm p50 %.3f p95 %.3f\n"
           h.Metrics.count
           (Metrics.counter_value snap "train.skipped_steps")
           (Metrics.quantile h 0.5) (Metrics.quantile h 0.95))
  | _ -> ());
  (* training-dynamics health verdicts (point-in-time rules) *)
  (if Dynamics.on () then
     match Health.check_snapshot snap with
     | [] -> Buffer.add_string buf "health: all rules passed\n"
     | findings ->
         List.iter
           (fun f -> Buffer.add_string buf (Health.render_finding f ^ "\n"))
           findings);
  let hits = Metrics.counter_value snap "experiments.cache_hits" in
  let misses = Metrics.counter_value snap "experiments.cache_misses" in
  if hits + misses > 0 then
    Buffer.add_string buf
      (Printf.sprintf "experiment cache: %d hits / %d misses\n" hits misses);
  (* training throughput (recorded per-model by Train.fit when metrics are on) *)
  List.iter
    (fun (e : Metrics.entry) ->
      let model = match e.Metrics.e_labels with (_, v) :: _ -> v | [] -> "?" in
      let eps = match e.Metrics.e_value with Metrics.G x -> x | _ -> 0.0 in
      let labels = e.Metrics.e_labels in
      let sps =
        Option.value ~default:0.0
          (Metrics.gauge_value ~labels snap "train.subtokens_per_second")
      in
      Buffer.add_string buf
        (Printf.sprintf "throughput[%s]: %.1f examples/s, %.1f sub-tokens/s%s\n" model eps sps
           (match Metrics.gauge_value ~labels snap "train.eta_seconds" with
           | Some eta when eta > 0.0 -> Printf.sprintf " (eta %.1fs)" eta
           | _ -> "")))
    (Metrics.entries_with snap "train.examples_per_second");
  (* model profile *)
  (if Profile.enabled () then begin
     let p = Profile.snapshot () in
     (if p.Profile.layers <> [] then begin
        let step_total =
          List.fold_left
            (fun acc (l : Profile.layer_stat) -> acc +. l.Profile.fwd_self_s +. l.Profile.bwd_s)
            p.Profile.untagged_bwd_s p.Profile.layers
        in
        let pct x = if step_total > 0.0 then 100.0 *. x /. step_total else 0.0 in
        Buffer.add_string buf "profile: per-layer time (self = children excluded):\n";
        let rows =
          List.map
            (fun (l : Profile.layer_stat) ->
              [ l.Profile.layer_name;
                string_of_int l.Profile.calls;
                Printf.sprintf "%.3f" l.Profile.fwd_total_s;
                Printf.sprintf "%.3f" l.Profile.fwd_self_s;
                Printf.sprintf "%.3f" l.Profile.bwd_s;
                Printf.sprintf "%.1f%%" (pct (l.Profile.fwd_self_s +. l.Profile.bwd_s)) ])
            p.Profile.layers
          @
          if p.Profile.untagged_bwd_s > 0.0 then
            [ [ "(untagged)"; "-"; "-"; "-";
                Printf.sprintf "%.3f" p.Profile.untagged_bwd_s;
                Printf.sprintf "%.1f%%" (pct p.Profile.untagged_bwd_s) ] ]
          else []
        in
        buf_table buf ([ "layer"; "calls"; "fwd s"; "fwd self s"; "bwd s"; "% step" ] :: rows)
      end);
     (if p.Profile.ops <> [] then begin
        Buffer.add_string buf "profile: top ops by FLOPs:\n";
        let by_flops =
          List.sort
            (fun (a : Profile.op_stat) b -> compare (b.Profile.flops, a.Profile.op_name) (a.Profile.flops, b.Profile.op_name))
            p.Profile.ops
          |> List.filteri (fun i _ -> i < 16)
        in
        buf_table buf
          ([ "op"; "count"; "Mflop"; "MB"; "s" ]
          :: List.map
               (fun (o : Profile.op_stat) ->
                 [ o.Profile.op_name;
                   string_of_int o.Profile.count;
                   Printf.sprintf "%.2f" (o.Profile.flops /. 1e6);
                   Printf.sprintf "%.2f" (o.Profile.bytes /. 1e6);
                   (if o.Profile.seconds > 0.0 then Printf.sprintf "%.3f" o.Profile.seconds
                    else "-") ])
               by_flops);
        Buffer.add_string buf
          (Printf.sprintf "profile: %.2f Mflop total; tensor memory peak %.2f MB, live %.2f MB\n"
             (Profile.total_flops p /. 1e6)
             (float_of_int p.Profile.snap_peak_bytes /. 1e6)
             (float_of_int p.Profile.snap_live_bytes /. 1e6))
      end)
   end);
  Buffer.contents buf

let print_report () = if enabled () then prerr_string (report ())

(* ---------------- the one reader ---------------- *)

(** What a telemetry file holds.  [liger stats] (summary, [--validate],
    [--openmetrics], [--diff]), [liger top] and [liger report] all get it
    from {!read}, so they agree on what is valid. *)
type file =
  | Ledger of Json.t list  (** run-ledger snapshots, oldest first; [[]] before the first tick *)
  | Postmortem of Json.t
  | Trace of Json.t
  | History of Bench_store.record list

let is_trace json = Json.member "traceEvents" json <> None
let is_postmortem json = Json.member "postmortem" json = Some (Json.Bool true)

let section_keys json section =
  match Json.member section json with Some (Json.Obj kvs) -> List.map fst kvs | _ -> []

(* the profile section of a snapshot: the label suffixes ("{op=...}") of
   its op counters and of its layer call counters *)
let profile_section json =
  let counters = section_keys json "counters" in
  let suffixes prefix =
    let lp = String.length prefix in
    List.filter_map
      (fun k ->
        if String.length k > lp && String.starts_with ~prefix k then
          Some (String.sub k lp (String.length k - lp))
        else None)
      counters
  in
  (suffixes "profile.op_count", suffixes "profile.layer_calls")

(* The full snapshot check: a counters section, and a whole profile
   section.  Every profile.op_count{op=X} needs its profile.op_flops{op=X},
   every profile.layer_calls{layer=X} its forward and backward seconds; a
   snapshot that fails this was not produced by Profile.publish. *)
let check_snapshot json =
  if Json.member "counters" json = None then Error "not a metrics snapshot (no counters)"
  else
    let fcounters = section_keys json "fcounters" in
    let ops, layers = profile_section json in
    let needed =
      List.map (( ^ ) "profile.op_flops") ops
      @ List.concat_map
          (fun sfx ->
            [ "profile.layer_forward_seconds" ^ sfx; "profile.layer_backward_seconds" ^ sfx ])
          layers
    in
    match List.find_opt (fun k -> not (List.mem k fcounters)) needed with
    | Some k -> Error ("profile section incomplete: missing " ^ k)
    | None -> Ok ()

let check_ledger_line json =
  if Json.member "ts" json = None then Error "ledger line without ts" else check_snapshot json

let events json name = Option.value ~default:[] (Option.bind (Json.member name json) Json.to_list)

let check_postmortem json =
  let complete ev =
    let has name f = Option.bind (Json.member name ev) f <> None in
    has "seq" Json.to_float && has "ts" Json.to_float && has "kind" Json.to_string
    && has "name" Json.to_string
  in
  match Option.bind (Json.member "events" json) Json.to_list with
  | None -> Error "postmortem without an events array"
  | Some evs when not (List.for_all complete evs) -> Error "postmortem event missing seq/ts/kind/name"
  | Some _ -> (
      match Json.member "metrics" json with
      | None -> Error "postmortem without a final metrics snapshot"
      | Some m -> Result.map_error (( ^ ) "postmortem metrics: ") (check_snapshot m))

(* every event must be a complete "X" event with a duration, or part of a
   matched "B"/"E" pair *)
let check_trace json =
  match Option.bind (Json.member "traceEvents" json) Json.to_list with
  | None -> Error "traceEvents is not an array"
  | Some evs ->
      let begins : (string * float, int) Hashtbl.t = Hashtbl.create 16 in
      let bump key d =
        Hashtbl.replace begins key (d + Option.value ~default:0 (Hashtbl.find_opt begins key))
      in
      let check ev =
        let str name = Option.bind (Json.member name ev) Json.to_string in
        let num name = Option.bind (Json.member name ev) Json.to_float in
        match (str "ph", str "name", num "ts", num "tid") with
        | Some "X", Some _, Some _, _ ->
            if num "dur" = None then Error "X event without dur" else Ok ()
        | Some "B", Some name, Some _, Some tid ->
            bump (name, tid) 1;
            Ok ()
        | Some "E", Some name, Some _, Some tid ->
            bump (name, tid) (-1);
            Ok ()
        | Some ("M" | "I" | "C"), _, _, _ -> Ok ()
        | Some ph, _, _, _ -> Error (Printf.sprintf "unsupported event ph %S" ph)
        | None, _, _, _ -> Error "event without ph"
      in
      let rec go = function
        | [] ->
            if Hashtbl.fold (fun _ d acc -> acc || d <> 0) begins false then
              Error "unmatched B/E events"
            else Ok ()
        | ev :: rest -> ( match check ev with Ok () -> go rest | Error _ as e -> e)
      in
      go evs

(** Read and check one telemetry file.  A Chrome trace or a postmortem
    is one JSON document.  Anything else is JSONL (see
    {!Json.parse_lines} for blank and torn lines): a {!Bench_store}
    history when its first line is a benchmark record, otherwise a run
    ledger, each of whose lines gets the full snapshot check.  Errors
    name the file and, for JSONL, the line. *)
let read path : (file, string) result =
  let fail msg = Error (Printf.sprintf "%s: %s" path msg) in
  let checked kind check j = match check j with Ok () -> Ok (kind j) | Error m -> fail m in
  match Json.read_all path with
  | Error _ as e -> e
  | Ok text -> (
      let doc = Json.parse text in
      match doc with
      | Ok j when is_trace j -> checked (fun j -> Trace j) check_trace j
      | Ok j when is_postmortem j -> checked (fun j -> Postmortem j) check_postmortem j
      | _ -> (
          match Json.parse_lines text with
          | Error msg ->
              fail
                (if Result.is_ok doc then
                   "a JSON document, but not a run ledger, postmortem, Chrome trace or \
                    benchmark history"
                 else msg)
          | Ok ((_, first) :: _ as lines) when Json.member "benchmark" first <> None -> (
              match Bench_store.records_of_lines lines with
              | Ok rs -> Ok (History rs)
              | Error msg -> fail msg)
          | Ok lines -> (
              let bad (i, j) =
                match check_ledger_line j with
                | Ok () -> None
                | Error msg -> Some (Printf.sprintf "line %d: %s" i msg)
              in
              match List.find_map bad lines with
              | Some msg -> fail msg
              | None -> Ok (Ledger (List.map snd lines)))))

let last l = List.nth l (List.length l - 1)
let empty_ledger path = Printf.sprintf "%s: empty run ledger" path

(* ---------------- [liger stats]: validate, summarize, openmetrics ---------------- *)

let describe_snapshot json =
  let n section = List.length (section_keys json section) in
  let ops, layers = profile_section json in
  Printf.sprintf "%d counters, %d fcounters, %d gauges, %d histograms%s" (n "counters")
    (n "fcounters") (n "gauges") (n "histograms")
    (if ops = [] && layers = [] then ""
     else
       Printf.sprintf ", profile section (%d ops, %d layers)" (List.length ops)
         (List.length layers))

let str_member json name =
  Option.value ~default:"?" (Option.bind (Json.member name json) Json.to_string)

(** [liger stats --validate]: {!read}'s checks, as a one-line summary. *)
let validate_file path =
  match read path with
  | Error _ as e -> e
  | Ok (Ledger []) -> Error (empty_ledger path)
  | Ok (Ledger lines) ->
      Ok
        (Printf.sprintf "run ledger with %d snapshots; last: %s" (List.length lines)
           (describe_snapshot (last lines)))
  | Ok (Postmortem j) ->
      Ok
        (Printf.sprintf "postmortem with %d events (reason: %s)"
           (List.length (events j "events")) (str_member j "reason"))
  | Ok (Trace j) -> Ok (Printf.sprintf "trace with %d events" (List.length (events j "traceEvents")))
  | Ok (History rs) -> Ok (Printf.sprintf "benchmark history with %d records" (List.length rs))

(** [path]'s final metrics snapshot (a ledger's last line, a postmortem's
    embedded snapshot) in OpenMetrics exposition format ([liger stats
    --openmetrics]). *)
let openmetrics_file path : (string, string) result =
  let render json =
    Result.map_error (Printf.sprintf "%s: %s" path) (Openmetrics.render_json json)
  in
  match read path with
  | Error _ as e -> e
  | Ok (Ledger []) -> Error (empty_ledger path)
  | Ok (Ledger lines) -> render (last lines)
  | Ok (Postmortem j) -> render (Option.get (Json.member "metrics" j))
  | Ok (Trace _ | History _) -> Error (Printf.sprintf "%s: holds no metrics snapshot" path)

let buf_metric_sections buf json =
  let section title kind render =
    match Json.member kind json with
    | Some (Json.Obj kvs) when kvs <> [] ->
        Buffer.add_string buf (title ^ ":\n");
        List.iter
          (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %-48s %s\n" k (render v)))
          kvs
    | _ -> ()
  in
  let scalar = function
    | Json.Num f -> if Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%g" f
    | _ -> "?"
  in
  let hist = function
    | Json.Obj _ as h -> (
        match
          ( Option.bind (Json.member "count" h) Json.to_float,
            Option.bind (Json.member "sum" h) Json.to_float )
        with
        | Some c, Some s -> Printf.sprintf "count=%.0f sum=%g" c s
        | _ -> "?")
    | _ -> "?"
  in
  section "counters" "counters" scalar;
  section "fcounters" "fcounters" scalar;
  section "gauges" "gauges" scalar;
  section "histograms" "histograms" hist

let record_label path (r : Bench_store.record) =
  Printf.sprintf "%s [%s %s@%s jobs=%d]" path r.Bench_store.benchmark r.Bench_store.date
    r.Bench_store.rev r.Bench_store.jobs

(** Pretty-print a run ledger (its last snapshot), postmortem dump,
    trace or benchmark history (its last record). *)
let summarize_file path =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  match read path with
  | Error _ as e -> e
  | Ok (Ledger []) -> Error (empty_ledger path)
  | Ok (Ledger lines) ->
      let final = last lines in
      line "%s: run ledger, %d snapshots, %s" path (List.length lines)
        (if Json.member "final" final = Some (Json.Bool true) then "ends with the exit tick"
         else "no exit tick yet (still running, or killed)");
      buf_metric_sections buf final;
      Ok (Buffer.contents buf)
  | Ok (Postmortem j) ->
      let evs = events j "events" in
      line "%s: postmortem (%s), %d surviving events" path (str_member j "reason")
        (List.length evs);
      List.iteri
        (fun i ev ->
          let num name =
            Option.value ~default:0.0 (Option.bind (Json.member name ev) Json.to_float)
          in
          let detail = str_member ev "detail" in
          if i >= List.length evs - 15 then
            line "  #%-6.0f d%d %-5s %s%s" (num "seq") (int_of_float (num "domain"))
              (str_member ev "kind") (str_member ev "name")
              (if detail = "" || detail = "?" then "" else " — " ^ detail))
        evs;
      line "final snapshot:";
      buf_metric_sections buf (Option.get (Json.member "metrics" j));
      Ok (Buffer.contents buf)
  | Ok (Trace j) ->
      let evs = events j "traceEvents" in
      let tbl : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 32 in
      List.iter
        (fun ev ->
          match
            (Option.bind (Json.member "name" ev) Json.to_string,
             Option.bind (Json.member "dur" ev) Json.to_float)
          with
          | Some name, Some dur ->
              let count, total =
                match Hashtbl.find_opt tbl name with
                | Some cell -> cell
                | None ->
                    let cell = (ref 0, ref 0.0) in
                    Hashtbl.add tbl name cell;
                    cell
              in
              incr count;
              total := !total +. dur
          | _ -> ())
        evs;
      line "%s: %d span events (open in chrome://tracing or ui.perfetto.dev)" path
        (List.length evs);
      let rows =
        Hashtbl.fold (fun name (c, t) acc -> (name, !c, !t /. 1e6) :: acc) tbl []
        |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
        |> List.filteri (fun i _ -> i < 15)
      in
      buf_table buf
        ([ "span"; "count"; "total s" ]
        :: List.map (fun (name, c, t) -> [ name; string_of_int c; Printf.sprintf "%.3f" t ]) rows);
      Ok (Buffer.contents buf)
  | Ok (History rs) ->
      let r = last rs in
      line "%s: benchmark history, %d records; last %s" path (List.length rs)
        (record_label path r);
      List.iter (fun (k, v) -> line "  %-48s %g" k v) r.Bench_store.metrics;
      Ok (Buffer.contents buf)

(* ---------------- [liger stats --diff] ---------------- *)

(* a metrics snapshot as one flat name -> number map, the common currency
   of Bench_store.diff; histograms contribute name.sum and name.count *)
let flatten_snapshot json =
  let nums section suffixes =
    match Json.member section json with
    | Some (Json.Obj kvs) ->
        List.concat_map
          (fun (k, v) ->
            match suffixes with
            | [] -> Option.to_list (Option.map (fun f -> (k, f)) (Json.to_float v))
            | sfx ->
                List.filter_map
                  (fun s ->
                    Option.map (fun f -> (k ^ "." ^ s, f)) (Option.bind (Json.member s v) Json.to_float))
                  sfx)
          kvs
    | _ -> []
  in
  nums "counters" [] @ nums "fcounters" [] @ nums "gauges" [] @ nums "histograms" [ "sum"; "count" ]
  |> List.sort compare

(* every snapshot or record of [path], oldest first, as (label, flat map) *)
let flat_records path =
  let snapshot j =
    ( (match Option.bind (Json.member "seq" j) Json.to_float with
      | Some seq -> Printf.sprintf "%s [snapshot #%.0f]" path seq
      | None -> path),
      flatten_snapshot j )
  in
  match read path with
  | Error _ as e -> e
  | Ok (Ledger lines) -> Ok (List.map snapshot lines)
  | Ok (Postmortem j) -> Ok [ (path ^ " [postmortem]", flatten_snapshot (Option.get (Json.member "metrics" j))) ]
  | Ok (History rs) -> Ok (List.map (fun r -> (record_label path r, r.Bench_store.metrics)) rs)
  | Ok (Trace _) -> Error (Printf.sprintf "%s: trace files cannot be diffed (no scalar metrics)" path)

let render_diff ?threshold (la, fa) (lb, fb) =
  Printf.sprintf "diff: %s -> %s\n%s" la lb (Bench_store.render_diff ?threshold fa fb)

(** [diff_files a b] renders the threshold-flagged delta table between the
    last snapshot or record of [a] and that of [b]. *)
let diff_files ?threshold a b =
  let final path =
    Result.bind (flat_records path) (function
      | [] -> Error (empty_ledger path)
      | rs -> Ok (last rs))
  in
  match (final a, final b) with
  | Ok fa, Ok fb -> Ok (render_diff ?threshold fa fb)
  | (Error _ as e), _ | _, (Error _ as e) -> e

(** [diff_history path] compares the last two snapshots or records of one
    JSONL file. *)
let diff_history ?threshold path =
  match flat_records path with
  | Error _ as e -> e
  | Ok rs when List.length rs < 2 ->
      Error
        (Printf.sprintf "%s: need at least 2 records to diff (found %d)" path (List.length rs))
  | Ok rs ->
      let n = List.length rs in
      Ok (render_diff ?threshold (List.nth rs (n - 2)) (List.nth rs (n - 1)))

(* ---------------- [liger top] ---------------- *)

(** The most recently updated run ledger under {!runs_root} (what
    [liger top] tails when no run is named). *)
let latest_run_ledger () =
  match Sys.readdir (runs_root ()) with
  | exception Sys_error _ -> None
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun name ->
             let ledger =
               Filename.concat (Filename.concat (runs_root ()) name) "metrics.jsonl"
             in
             match Unix.stat ledger with
             | st -> Some ((st.Unix.st_mtime, ledger), ledger)
             | exception Unix.Unix_error _ -> None)
      |> List.sort (fun (a, _) (b, _) -> compare b a)
      |> function [] -> None | (_, ledger) :: _ -> Some ledger

(** Render one frame of the [liger top] live view from the latest ledger
    snapshot [cur], with per-interval deltas against [prev] and, when the
    caller evaluated the ledger, the {!Health} verdicts at the bottom. *)
let render_top ?prev ?health ~source cur : (string, string) result =
  match Openmetrics.snapshot_of_json cur with
  | Error _ as e -> e
  | Ok snap ->
      let prev_snap =
        Option.bind prev (fun p -> Result.to_option (Openmetrics.snapshot_of_json p))
      in
      let ts j = Option.bind (Json.member "ts" j) Json.to_float in
      let dt =
        match (ts cur, Option.bind prev ts) with
        | Some a, Some b when a > b -> Printf.sprintf "  (+%.1fs)" (a -. b)
        | _ -> ""
      in
      let seq =
        match Option.bind (Json.member "seq" cur) Json.to_float with
        | Some s -> Printf.sprintf "  snapshot #%.0f" s
        | None -> ""
      in
      let buf = Buffer.create 1024 in
      let line fmt =
        Printf.ksprintf
          (fun s ->
            Buffer.add_string buf s;
            Buffer.add_char buf '\n')
          fmt
      in
      line "liger top — %s%s%s" source seq dt;
      let g ?labels name = Metrics.gauge_value ?labels snap name in
      let pgauge name = Option.bind prev_snap (fun ps -> Metrics.gauge_value ps name) in
      let with_delta name cur =
        match pgauge name with
        | Some p when cur >= p -> Printf.sprintf "%.0f (+%.0f)" cur (cur -. p)
        | _ -> Printf.sprintf "%.0f" cur
      in
      (* training throughput / loss / validation, per model *)
      List.iter
        (fun (e : Metrics.entry) ->
          let model = match e.Metrics.e_labels with (_, v) :: _ -> v | [] -> "?" in
          let labels = e.Metrics.e_labels in
          let eps = match e.Metrics.e_value with Metrics.G x -> x | _ -> 0.0 in
          line "train[%s]: %.1f ex/s, loss %s, valid %s%s" model eps
            (match g ~labels "train.loss" with Some l -> Printf.sprintf "%.4f" l | None -> "-")
            (match g ~labels "train.valid_score" with
            | Some v -> Printf.sprintf "%.3f" v
            | None -> "-")
            (match g ~labels "train.eta_seconds" with
            | Some eta when eta > 0.0 -> Printf.sprintf ", eta %.0fs" eta
            | _ -> ""))
        (Metrics.entries_with snap "train.examples_per_second");
      (* grad-norm quantiles with per-interval step delta *)
      List.iter
        (fun (e : Metrics.entry) ->
          match e.Metrics.e_value with
          | Metrics.H h when h.Metrics.count > 0 ->
              let fresh =
                match
                  Option.bind prev_snap (fun ps ->
                      Metrics.hist_view ~labels:e.Metrics.e_labels ps "train.grad_norm")
                with
                | Some ph -> h.Metrics.count - ph.Metrics.count
                | None -> h.Metrics.count
              in
              line "grad-norm: p50 %.3f  p90 %.3f  p99 %.3f  (%d steps, +%d this interval)"
                (Metrics.quantile h 0.5) (Metrics.quantile h 0.9) (Metrics.quantile h 0.99)
                h.Metrics.count fresh
          | _ -> ())
        (Metrics.entries_with snap "train.grad_norm");
      (* pool utilization *)
      let fsum name =
        List.fold_left
          (fun acc (e : Metrics.entry) ->
            match e.Metrics.e_value with Metrics.F x -> acc +. x | _ -> acc)
          0.0
          (Metrics.entries_with snap name)
      in
      let busy_lanes = List.length (Metrics.entries_with snap "parallel.busy_seconds") in
      let wall = Metrics.fcounter_value snap "parallel.wall_seconds" in
      (if busy_lanes > 0 && wall > 0.0 then
         line "pool: %.1f%% utilization (%d lanes, %d tasks in %d batches)"
           (100.0 *. fsum "parallel.busy_seconds" /. (wall *. float_of_int busy_lanes))
           busy_lanes
           (Metrics.counter_value snap "parallel.tasks")
           (Metrics.counter_value snap "parallel.batches"));
      (* GC pressure *)
      (match g "gc.minor_collections" with
      | Some minor ->
          line "gc: minor %s, major %s, heap %.1f MB (top %.1f MB)"
            (with_delta "gc.minor_collections" minor)
            (match g "gc.major_collections" with
            | Some x -> with_delta "gc.major_collections" x
            | None -> "-")
            (Option.value ~default:0.0 (g "gc.heap_words") *. 8.0 /. 1e6)
            (Option.value ~default:0.0 (g "gc.top_heap_words") *. 8.0 /. 1e6)
      | None -> ());
      (* bufpool occupancy (gauges are per-domain; sum the lanes) *)
      let gsum name =
        List.fold_left
          (fun acc (e : Metrics.entry) ->
            match e.Metrics.e_value with Metrics.G x -> acc +. x | _ -> acc)
          0.0
          (Metrics.entries_with snap name)
      in
      let hits = gsum "bufpool.hits" and misses = gsum "bufpool.misses" in
      (if hits +. misses > 0.0 then
         line "bufpool: %.0f leased (hw %.0f), %.0f pooled (%.1f MB), %.1f%% hit rate"
           (gsum "bufpool.leased") (gsum "bufpool.hw_leased") (gsum "bufpool.pooled_buffers")
           (gsum "bufpool.pooled_elements" *. 8.0 /. 1e6)
           (100.0 *. hits /. (hits +. misses)));
      (match g "train.tape_nodes" with
      | Some n -> line "tape: %.0f nodes on the last batched tape" n
      | None -> ());
      (* serving endpoints (when a liger serve process is exporting):
         request counts, latency quantiles and per-interval QPS *)
      List.iter
        (fun (e : Metrics.entry) ->
          match e.Metrics.e_value with
          | Metrics.H h when h.Metrics.count > 0 ->
              let endpoint =
                match List.assoc_opt "endpoint" e.Metrics.e_labels with
                | Some ep -> ep
                | None -> "?"
              in
              let qps =
                match
                  ( Option.bind prev_snap (fun ps ->
                        Metrics.hist_view ~labels:e.Metrics.e_labels ps
                          "serve.latency_seconds"),
                    ts cur,
                    Option.bind prev ts )
                with
                | Some ph, Some t1, Some t0 when t1 > t0 ->
                    Printf.sprintf ", %.1f qps"
                      (float_of_int (h.Metrics.count - ph.Metrics.count) /. (t1 -. t0))
                | _ -> ""
              in
              line "serve[%s]: %d reqs, p50 %.1f ms, p99 %.1f ms%s" endpoint
                h.Metrics.count
                (1000.0 *. Metrics.quantile h 0.5)
                (1000.0 *. Metrics.quantile h 0.99)
                qps
          | _ -> ())
        (Metrics.entries_with snap "serve.latency_seconds");
      (match g "serve.cache_hits" with
      | Some hits ->
          let v name = Option.value ~default:0.0 (g name) in
          line "serve cache: %.0f entries, %.0f hits / %.0f misses, %.0f evicted"
            (v "serve.cache_entries") hits (v "serve.cache_misses")
            (v "serve.cache_evictions")
      | None -> ());
      (* embedding drift (when the dynamics streams are recording) *)
      List.iter
        (fun (e : Metrics.entry) ->
          let model = match e.Metrics.e_labels with (_, v) :: _ -> v | [] -> "?" in
          let drift = match e.Metrics.e_value with Metrics.G x -> x | _ -> 0.0 in
          line "drift[%s]: %.4f cosine/epoch%s" model drift
            (match g ~labels:e.Metrics.e_labels "dynamics.nn_churn" with
            | Some c -> Printf.sprintf ", nn-churn %.2f" c
            | None -> ""))
        (Metrics.entries_with snap "dynamics.embed_drift");
      (* health verdicts over the whole ledger *)
      (match health with
      | None -> ()
      | Some [] -> line "health: all rules passed"
      | Some findings ->
          List.iter (fun f -> line "%s" (Health.render_finding f)) findings);
      Ok (Buffer.contents buf)

(** How to get a ledger when autodiscovery comes up empty — shared by
    [liger top] and [liger report]. *)
let no_ledger_hint () =
  Printf.sprintf
    "expected layout: %s/<run-id>/metrics.jsonl (one JSON snapshot per line)\n\
     start a run with metrics on (LIGER_METRICS=1, --profile, --dynamics, or \
     --metrics-every SECONDS for periodic snapshots), e.g.\n\
    \  liger train -n 60 --epochs 8 --batch 16 --metrics-every 1 --dynamics"
    (runs_root ())

let empty_ledger_hint path =
  Printf.sprintf
    "%s\n%s holds no complete snapshot yet: the emitter appends the first line one \
     interval after startup and a final line when the run exits.  Use a smaller \
     --metrics-every, or wait for the run to finish."
    (empty_ledger path) path

(* the snapshots of the run ledger at [path], for top and report *)
let ledger_lines path =
  match read path with
  | Error msg -> Error (Printf.sprintf "%s\n%s" msg (no_ledger_hint ()))
  | Ok (Ledger []) -> Error (empty_ledger_hint path)
  | Ok (Ledger lines) -> Ok lines
  | Ok _ -> Error (Printf.sprintf "%s: not a run ledger\n%s" path (no_ledger_hint ()))

(** One [liger top] frame for the ledger at [path]. *)
let top_frame path : (string, string) result =
  Result.bind (ledger_lines path) (fun lines ->
      let prev = match List.rev lines with _ :: p :: _ -> Some p | _ -> None in
      render_top ?prev ~health:(Health.evaluate lines) ~source:path (last lines))

(* ---------------- [liger report] ---------------- *)

(** Resolve a [liger report]/[liger top] run argument to a run directory:
    an explicit path, a run id under {!runs_root}, or — when absent — the
    directory of the most recently updated ledger. *)
let resolve_run_dir arg : (string, string) result =
  match arg with
  | Some arg ->
      if Sys.file_exists arg && Sys.is_directory arg then Ok arg
      else
        let candidate = Filename.concat (runs_root ()) arg in
        if Sys.file_exists candidate && Sys.is_directory candidate then Ok candidate
        else
          Error
            (Printf.sprintf "no run directory %s (nor %s)\n%s" arg candidate
               (no_ledger_hint ()))
  | None -> (
      match latest_run_ledger () with
      | Some ledger -> Ok (Filename.dirname ledger)
      | None ->
          Error
            (Printf.sprintf "no run ledger found under %s/\n%s" (runs_root ())
               (no_ledger_hint ())))

(** Load everything [liger report] renders for one run directory: the
    ledger, the probe table, a postmortem if the run crashed, and — when
    [bench_history] names a [BENCH_history.jsonl] — the training records
    from it (most recent last, capped at 8). *)
let load_report_run ?bench_history dir : (Report_html.run, string) result =
  Result.map
    (fun lines ->
      let postmortem =
        match read (Filename.concat dir "postmortem.json") with
        | Ok (Postmortem j) -> Some j
        | _ -> None
      in
      let bench =
        match Option.map read bench_history with
        | Some (Ok (History records)) ->
            let train =
              List.filter
                (fun (r : Bench_store.record) ->
                  String.starts_with ~prefix:"train." r.Bench_store.benchmark)
                records
            in
            let n = List.length train in
            List.filteri (fun i _ -> i >= n - 8) train
        | _ -> []
      in
      {
        Report_html.label = Filename.basename dir;
        lines;
        probe = Result.to_option (Json.read_all (Filename.concat dir "probe_accuracy.txt"));
        postmortem;
        bench;
      })
    (ledger_lines (Filename.concat dir "metrics.jsonl"))
