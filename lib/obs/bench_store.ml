(** Append-only benchmark history ([BENCH_history.jsonl]) and snapshot
    diffing.

    One record per line, each a self-contained JSON object with provenance
    (benchmark name, git rev, caller-supplied ISO date, jobs) and a flat
    name→number metrics map.  Appending never rewrites the file, so
    histories accumulate across runs/machines and stay trivially mergeable;
    readers share the run ledger's line rules ({!Json.parse_lines}).

    {!diff} compares two flat metric maps and flags relative changes beyond
    a threshold — the engine behind [liger stats --diff] and
    [bench --check-regression]. *)

type record = {
  benchmark : string;
  rev : string;   (* git revision, or "unknown" *)
  date : string;  (* ISO-8601, supplied by the caller (no clock reads here) *)
  jobs : int;
  metrics : (string * float) list;
}

(* ---------------- provenance helpers ---------------- *)

(** Short git rev of the working tree, [LIGER_GIT_REV] override first
    (hermetic CI), "unknown" when git is unavailable. *)
let git_rev () =
  match Sys.getenv_opt "LIGER_GIT_REV" with
  | Some r when String.trim r <> "" -> String.trim r
  | _ -> (
      try
        let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ -> "unknown"
      with _ -> "unknown")

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* ---------------- serialisation ---------------- *)

let to_json_line (r : record) =
  let metrics = List.sort (fun (a, _) (b, _) -> compare a b) r.metrics in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"benchmark\":\"%s\",\"rev\":\"%s\",\"date\":\"%s\",\"jobs\":%d,\"metrics\":{"
       (Json.escape r.benchmark) (Json.escape r.rev) (Json.escape r.date) r.jobs);
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (Json.escape k) (Json.of_float v)))
    metrics;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let parse_record (j : Json.t) : (record, string) result =
  let str name = Option.bind (Json.member name j) Json.to_string in
  let num name = Option.bind (Json.member name j) Json.to_float in
  match (str "benchmark", str "rev", str "date", num "jobs", Json.member "metrics" j) with
  | Some benchmark, Some rev, Some date, Some jobs, Some (Json.Obj fields) ->
      let metrics =
        List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_float v)) fields
      in
      Ok { benchmark; rev; date; jobs = int_of_float jobs; metrics }
  | _ -> Error "record is missing benchmark/rev/date/jobs/metrics"

(* ---------------- file I/O ---------------- *)

(** Append one record (plus newline).  Creates the file if needed. *)
let append ~path (r : record) =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (to_json_line r);
  output_char oc '\n';
  close_out oc

(** Parsed JSONL lines (see {!Json.parse_lines}) as records; a line that
    is not a record is an error naming its line number. *)
let records_of_lines lines : (record list, string) result =
  List.fold_left
    (fun acc (lineno, j) ->
      Result.bind acc (fun rs ->
          match parse_record j with
          | Ok r -> Ok (r :: rs)
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)))
    (Ok []) lines
  |> Result.map List.rev

(** All records in file order; blank lines are skipped, a malformed line is
    an error naming its line number, and a torn final line is dropped. *)
let load path : (record list, string) result =
  match Json.read_all path with
  | Error _ as e -> e
  | Ok text ->
      Result.bind (Json.parse_lines text) records_of_lines
      |> Result.map_error (Printf.sprintf "%s: %s" path)

(** Most recent record matching [benchmark] (and [jobs] when given). *)
let last_matching ?jobs ~benchmark records =
  List.fold_left
    (fun acc r ->
      if r.benchmark = benchmark && (match jobs with None -> true | Some j -> r.jobs = j) then
        Some r
      else acc)
    None records

(* ---------------- diffing ---------------- *)

type delta = {
  metric : string;
  before : float;
  after : float;
  change : float;   (* relative change; infinity when before = 0 <> after *)
  flagged : bool;   (* |change| > threshold *)
}

let relative_change ~before ~after =
  if before = after then 0.0
  else if before = 0.0 then (if after > 0.0 then infinity else neg_infinity)
  else (after -. before) /. Float.abs before

(** Compare two flat metric maps over the union of their names (sorted);
    a metric missing on one side is reported with [nan] there and always
    flagged. *)
let diff ?(threshold = 0.1) (a : (string * float) list) (b : (string * float) list) : delta list =
  let names =
    List.sort_uniq compare (List.map fst a @ List.map fst b)
  in
  List.map
    (fun name ->
      match (List.assoc_opt name a, List.assoc_opt name b) with
      | Some before, Some after ->
          let change = relative_change ~before ~after in
          { metric = name; before; after; change; flagged = Float.abs change > threshold }
      | Some before, None ->
          { metric = name; before; after = Float.nan; change = Float.nan; flagged = true }
      | None, Some after ->
          { metric = name; before = Float.nan; after; change = Float.nan; flagged = true }
      | None, None -> assert false)
    names

let pct change =
  if Float.is_nan change then "-"
  else if Float.is_integer (change *. 100.0) && Float.abs change < 100.0 then
    Printf.sprintf "%+.0f%%" (change *. 100.0)
  else if Float.abs change = infinity then (if change > 0.0 then "+inf%" else "-inf%")
  else Printf.sprintf "%+.1f%%" (change *. 100.0)

let fmt_val x = if Float.is_nan x then "-" else Printf.sprintf "%.6g" x

(** Render a diff as an aligned text table (deterministic; goldens depend on
    it).  Flagged rows get a trailing [!]. *)
let render_diff ?threshold a b =
  let deltas = diff ?threshold a b in
  if deltas = [] then "no metrics to compare\n"
  else begin
    let rows =
      ("metric", "before", "after", "change", "")
      :: List.map
           (fun d ->
             (d.metric, fmt_val d.before, fmt_val d.after, pct d.change,
              if d.flagged then "!" else ""))
           deltas
    in
    let w f = List.fold_left (fun acc r -> max acc (String.length (f r))) 0 rows in
    let w1 = w (fun (a, _, _, _, _) -> a)
    and w2 = w (fun (_, b, _, _, _) -> b)
    and w3 = w (fun (_, _, c, _, _) -> c)
    and w4 = w (fun (_, _, _, d, _) -> d) in
    let buf = Buffer.create 256 in
    List.iter
      (fun (a, b, c, d, fl) ->
        Buffer.add_string buf
          (Printf.sprintf "%-*s  %*s  %*s  %*s%s\n" w1 a w2 b w3 c w4 d
             (if fl = "" then "" else "  " ^ fl)))
      rows;
    Buffer.contents buf
  end

let flagged_metrics deltas = List.filter (fun d -> d.flagged) deltas
