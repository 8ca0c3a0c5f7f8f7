(** OpenMetrics / Prometheus text exposition for {!Metrics} snapshots.

    [render] turns a live snapshot (and [render_json] a snapshot parsed
    back from a metrics file or a run-ledger line) into the exposition
    format: [# HELP] / [# TYPE] lines per metric family, one sample per
    label set, histograms as cumulative [_bucket{le=...}] series plus
    [_sum] / [_count].  Output is deterministic (the snapshot is already
    sorted by name, then labels), so rendering is golden-testable and a
    scrape diff is a real diff.

    This is also the library entry point a future [liger serve] scrape
    endpoint returns: [Openmetrics.render (Metrics.snapshot ())]. *)

(* ---------------- naming ---------------- *)

(** Map a registry name like ["train.grad_norm"] onto the OpenMetrics
    charset: [[a-zA-Z0-9_:]], dots and other separators become ['_']. *)
let sanitize_name name =
  let b = Bytes.create (String.length name) in
  String.iteri
    (fun i c ->
      Bytes.set b i
        (match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_'))
    name;
  let s = Bytes.to_string b in
  if s = "" then "_" else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

let escape_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize_name k) (escape_label_value v)) labels)
      ^ "}"

(* help text for the well-known families; anything unlisted gets a
   generic line so the exposition is still self-describing *)
let help_table =
  [
    ("parallel.tasks", "Tasks executed by the domain pool");
    ("parallel.batches", "Task batches submitted to the domain pool");
    ("parallel.wall_seconds", "Wall-clock seconds spent inside pool batches");
    ("parallel.busy_seconds", "Per-domain busy seconds inside pool batches");
    ("parallel.jobs", "Size of the domain pool");
    ("train.loss", "Mean training loss of the last epoch");
    ("train.valid_score", "Validation score of the last epoch");
    ("train.grad_norm", "Per-step global gradient norm");
    ("train.skipped_steps", "Optimizer steps skipped on non-finite gradients");
    ("train.examples_per_second", "Training throughput in examples per second");
    ("train.subtokens_per_second", "Training throughput in target sub-tokens per second");
    ("train.eta_seconds", "Estimated seconds until training completes");
    ("train.epoch_seconds", "Duration of the last epoch");
    ("train.tape_nodes", "Nodes on the last batched autodiff tape");
    ("gc.minor_collections", "OCaml GC minor collections");
    ("gc.major_collections", "OCaml GC major collection cycles");
    ("gc.compactions", "OCaml GC heap compactions");
    ("gc.minor_words", "Words allocated in the OCaml minor heap");
    ("gc.promoted_words", "Words promoted from the minor to the major heap");
    ("gc.major_words", "Words allocated in the OCaml major heap");
    ("gc.heap_words", "Current OCaml major heap size in words");
    ("gc.top_heap_words", "Largest OCaml major heap size in words");
    ("bufpool.leased", "Buffers currently leased from the bufpool, per domain");
    ("bufpool.hw_leased", "High-water mark of concurrently leased buffers, per domain");
    ("bufpool.pooled_buffers", "Buffers parked in bufpool freelists, per domain");
    ("bufpool.pooled_elements", "Float elements parked in bufpool freelists, per domain");
    ("bufpool.hits", "Bufpool leases served from a freelist, per domain");
    ("bufpool.misses", "Bufpool leases that had to allocate, per domain");
    ("bufpool.returns", "Buffers returned to the bufpool, per domain");
    ("obs.trace_events_dropped", "Span events dropped at the trace buffer cap");
    ("fuzz.runs", "Differential fuzzing iterations executed");
    ("fuzz.failures", "Differential fuzzing oracle failures");
    ("serve.requests", "HTTP requests served, by endpoint and status");
    ("serve.latency_seconds", "Request latency in seconds, by endpoint");
    ("serve.inflight", "Application requests currently inside the admission gate");
    ("serve.rejected_busy", "Requests refused with 429 at the inflight cap");
    ("serve.deadline_expired", "Requests answered 408 before occupying a batch lane");
    ("serve.batches", "Coalesced batched forwards run by the serving engine");
    ("serve.batch_lanes", "Total lanes across coalesced batched forwards");
    ("serve.cache_entries", "Entries currently in the embedding LRU cache");
    ("serve.cache_hits", "Embedding cache hits (AST-hash keyed)");
    ("serve.cache_misses", "Embedding cache misses");
    ("serve.cache_evictions", "Embedding cache evictions at capacity");
  ]

let help_for name =
  match List.assoc_opt name help_table with
  | Some h -> h
  | None -> "LiGer metric " ^ name

(* ---------------- rendering ---------------- *)

let fmt_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Json.of_float x

(** Render a snapshot in OpenMetrics text format, terminated by
    [# EOF]. *)
let render (snap : Metrics.snapshot) =
  let buf = Buffer.create 4096 in
  (* group consecutive entries by family name (snapshot is sorted) *)
  let families =
    List.fold_left
      (fun acc (e : Metrics.entry) ->
        match acc with
        | (name, es) :: rest when name = e.Metrics.e_name -> (name, e :: es) :: rest
        | _ -> (e.Metrics.e_name, [ e ]) :: acc)
      [] snap
    |> List.rev_map (fun (name, es) -> (name, List.rev es))
  in
  List.iter
    (fun (name, entries) ->
      let om = sanitize_name name in
      let kind =
        match (List.hd entries).Metrics.e_value with
        | Metrics.C _ | Metrics.F _ -> `Counter
        | Metrics.G _ -> `Gauge
        | Metrics.H _ -> `Histogram
      in
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" om (help_for name));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" om
           (match kind with `Counter -> "counter" | `Gauge -> "gauge" | `Histogram -> "histogram"));
      List.iter
        (fun (e : Metrics.entry) ->
          let labels = render_labels e.Metrics.e_labels in
          match e.Metrics.e_value with
          | Metrics.C n -> Buffer.add_string buf (Printf.sprintf "%s_total%s %d\n" om labels n)
          | Metrics.F x ->
              Buffer.add_string buf (Printf.sprintf "%s_total%s %s\n" om labels (fmt_float x))
          | Metrics.G x -> Buffer.add_string buf (Printf.sprintf "%s%s %s\n" om labels (fmt_float x))
          | Metrics.H h ->
              let with_le le =
                render_labels (e.Metrics.e_labels @ [ ("le", le) ])
              in
              let cum = ref 0 in
              Array.iteri
                (fun i bound ->
                  cum := !cum + h.Metrics.counts.(i);
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" om (with_le (fmt_float bound)) !cum))
                h.Metrics.buckets;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" om (with_le "+Inf") h.Metrics.count);
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" om labels (fmt_float h.Metrics.sum));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" om labels h.Metrics.count))
        entries)
    families;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* ---------------- snapshots parsed back from files ---------------- *)

(** Rebuild a {!Metrics.snapshot} from a parsed run-ledger line (the
    inverse of {!Metrics.to_line}). *)
let snapshot_of_json (json : Json.t) : (Metrics.snapshot, string) result =
  match Json.member "counters" json with
  | None -> Error "not a metrics snapshot (no \"counters\" member)"
  | Some _ -> (
      let entries section f =
        match Json.member section json with
        | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) ->
                let name, labels = Metrics.parse_rendered_key k in
                Option.map
                  (fun value -> { Metrics.e_name = name; e_labels = labels; e_value = value })
                  (f v))
              kvs
        | _ -> []
      in
      let num f = Option.map f in
      let hist v =
        let floats name =
          Option.bind (Json.member name v) Json.to_list
          |> Option.map (List.filter_map Json.to_float)
        in
        match
          ( floats "buckets",
            floats "counts",
            Option.bind (Json.member "sum" v) Json.to_float,
            Option.bind (Json.member "count" v) Json.to_float )
        with
        | Some buckets, Some counts, Some sum, Some count ->
            Some
              (Metrics.H
                 {
                   Metrics.buckets = Array.of_list buckets;
                   counts = Array.of_list (List.map int_of_float counts);
                   sum;
                   count = int_of_float count;
                 })
        | _ -> None
      in
      let snap =
        entries "counters" (fun v -> num (fun f -> Metrics.C (int_of_float f)) (Json.to_float v))
        @ entries "fcounters" (fun v -> num (fun f -> Metrics.F f) (Json.to_float v))
        @ entries "gauges" (fun v -> num (fun f -> Metrics.G f) (Json.to_float v))
        @ entries "histograms" hist
      in
      Ok
        (List.sort
           (fun (a : Metrics.entry) b ->
             compare (a.Metrics.e_name, a.Metrics.e_labels) (b.Metrics.e_name, b.Metrics.e_labels))
           snap))

let render_json json =
  match snapshot_of_json json with Ok snap -> Ok (render snap) | Error _ as e -> e

(* ---------------- structural lint ---------------- *)

let strip_suffix s sfx =
  let ls = String.length s and lx = String.length sfx in
  if ls > lx && String.sub s (ls - lx) lx = sfx then Some (String.sub s 0 (ls - lx)) else None

(** Structural validation of exposition text: every sample must belong
    to a declared [# TYPE] family with the right suffix for its type,
    histogram buckets must be cumulative with [+Inf] equal to [_count],
    and the text must end with [# EOF].  Returns the sample count. *)
let lint text : (int, string) result =
  let lines = String.split_on_char '\n' text in
  let types : (string, string) Hashtbl.t = Hashtbl.create 16 in
  (* histogram series state: (family ^ labels-minus-le) -> last cumulative
     bucket value, +Inf value *)
  let buckets : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let infs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let samples = ref 0 in
  let saw_eof = ref false in
  let err = ref None in
  let fail line msg = if !err = None then err := Some (Printf.sprintf "%s: %S" msg line) in
  let split_sample line =
    (* name{labels} value | name value *)
    let name_end =
      match String.index_opt line '{' with
      | Some i -> i
      | None -> ( match String.index_opt line ' ' with Some i -> i | None -> String.length line)
    in
    let name = String.sub line 0 name_end in
    let rest = String.sub line name_end (String.length line - name_end) in
    let labels, value =
      if String.length rest > 0 && rest.[0] = '{' then
        match String.index_opt rest '}' with
        | Some j ->
            ( String.sub rest 0 (j + 1),
              String.trim (String.sub rest (j + 1) (String.length rest - j - 1)) )
        | None -> ("", "")
      else ("", String.trim rest)
    in
    (name, labels, value)
  in
  let series_key family labels =
    (* drop the le="..." pair so all buckets of one histogram series share a key *)
    let labels =
      if labels = "" then ""
      else
        String.sub labels 1 (String.length labels - 2)
        |> String.split_on_char ','
        |> List.filter (fun kv -> not (String.length kv >= 3 && String.sub kv 0 3 = "le="))
        |> String.concat ","
    in
    family ^ "{" ^ labels ^ "}"
  in
  List.iter
    (fun line ->
      if !err <> None || line = "" then ()
      else if !saw_eof then fail line "content after # EOF"
      else if line = "# EOF" then saw_eof := true
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ _; _; name; ty ] when List.mem ty [ "counter"; "gauge"; "histogram" ] ->
            Hashtbl.replace types name ty
        | _ -> fail line "malformed # TYPE line"
      end
      else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then ()
      else if String.length line >= 1 && line.[0] = '#' then fail line "unrecognized comment"
      else begin
        let name, labels, value = split_sample line in
        if value = "" || name = "" then fail line "malformed sample"
        else begin
          incr samples;
          let declared n ty = Hashtbl.find_opt types n = Some ty in
          match strip_suffix name "_bucket" with
          | Some base when declared base "histogram" -> (
              match int_of_string_opt value with
              | None -> fail line "non-integer bucket value"
              | Some v ->
                  let key = series_key base labels in
                  let is_inf =
                    (* substring "le=\"+Inf\"" present *)
                    let needle = "le=\"+Inf\"" in
                    let ln = String.length needle and ll = String.length labels in
                    let rec has i = i + ln <= ll && (String.sub labels i ln = needle || has (i + 1)) in
                    has 0
                  in
                  let prev = Option.value ~default:0 (Hashtbl.find_opt buckets key) in
                  if v < prev then fail line "histogram buckets not cumulative"
                  else begin
                    Hashtbl.replace buckets key v;
                    if is_inf then Hashtbl.replace infs key v
                  end)
          | _ -> (
              match strip_suffix name "_sum" with
              | Some base when declared base "histogram" -> ()
              | _ -> (
                  match strip_suffix name "_count" with
                  | Some base when declared base "histogram" -> (
                      match int_of_string_opt value with
                      | Some v -> Hashtbl.replace counts (series_key base labels) v
                      | None -> fail line "non-integer histogram count")
                  | _ -> (
                      match strip_suffix name "_total" with
                      | Some base when declared base "counter" -> ()
                      | _ ->
                          if not (declared name "gauge") then
                            fail line "sample without a matching # TYPE declaration")))
        end
      end)
    lines;
  match !err with
  | Some e -> Error e
  | None ->
      if not !saw_eof then Error "missing # EOF terminator"
      else begin
        (* every histogram series: +Inf bucket must equal _count *)
        Hashtbl.iter
          (fun key inf ->
            match Hashtbl.find_opt counts key with
            | Some c when c <> inf ->
                if !err = None then
                  err := Some (Printf.sprintf "histogram %s: +Inf bucket %d <> count %d" key inf c)
            | _ -> ())
          infs;
        match !err with Some e -> Error e | None -> Ok !samples
      end
