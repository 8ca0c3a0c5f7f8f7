(** Periodic time-series snapshots of the {!Metrics} registry — the run
    ledger.

    Every metrics-enabled run appends to one JSONL file, by default
    [runs/<run-id>/metrics.jsonl] (see {!Obs.init}): one {!Metrics.to_line}
    snapshot plus ["ts"] / ["seq"] fields per line.  [start ~every ~path]
    spawns a background thread that appends a line per interval; the exit
    flush appends the final line, marked ["final":true].  [liger stats],
    [liger top] and [liger report] read the file through {!Obs.read}.

    Before each snapshot the registry is *enriched*: built-in OCaml GC
    gauges are published, then every registered enricher callback runs.
    Subsystems below [lib/obs] in the dependency order (e.g.
    {!Liger_tensor.Bufpool}) register an enricher at module
    initialisation instead of being called from here — the registry
    callback keeps the dependency arrow pointing the right way. *)

let enrichers_mutex = Mutex.create ()
let enrichers : (unit -> unit) list ref = ref []

(** Register a callback that publishes gauges into {!Metrics} just
    before each ledger snapshot (and once more at the final flush).
    Callbacks must be cheap and must not raise (exceptions are
    swallowed). *)
let register_enricher f =
  Mutex.lock enrichers_mutex;
  enrichers := f :: !enrichers;
  Mutex.unlock enrichers_mutex

(* OCaml GC pressure, the first suspect when throughput sags.
   [Gc.quick_stat] is exact for everything published here except
   [minor_words], which is within one minor heap of exact — fine for a
   trend line. *)
let gc_enrich () =
  let s = Gc.quick_stat () in
  Metrics.gauge "gc.minor_collections" (float_of_int s.Gc.minor_collections);
  Metrics.gauge "gc.major_collections" (float_of_int s.Gc.major_collections);
  Metrics.gauge "gc.compactions" (float_of_int s.Gc.compactions);
  Metrics.gauge "gc.minor_words" s.Gc.minor_words;
  Metrics.gauge "gc.promoted_words" s.Gc.promoted_words;
  Metrics.gauge "gc.major_words" s.Gc.major_words;
  Metrics.gauge "gc.heap_words" (float_of_int s.Gc.heap_words);
  Metrics.gauge "gc.top_heap_words" (float_of_int s.Gc.top_heap_words)

(** Publish the GC gauges and run every registered enricher.  A no-op
    when the metrics registry is disabled. *)
let enrich () =
  if Metrics.enabled () then begin
    gc_enrich ();
    Mutex.lock enrichers_mutex;
    let fs = !enrichers in
    Mutex.unlock enrichers_mutex;
    List.iter (fun f -> try f () with _ -> ()) fs
  end

(* ---------------- the ledger ---------------- *)

let emit_mutex = Mutex.create ()
let seq = ref 0

(** Append one enriched snapshot line to the ledger at [path].  The exit
    tick passes [~final:true], which marks its line ["final":true]: a
    ledger whose last line carries it belongs to a run that exited. *)
let tick ?(final = false) ~path () =
  enrich ();
  let snap = Metrics.snapshot () in
  Mutex.lock emit_mutex;
  let extra =
    [ ("ts", Json.of_float (Unix.gettimeofday ())); ("seq", string_of_int !seq) ]
    @ if final then [ ("final", "true") ] else []
  in
  let line = Metrics.to_line ~extra snap in
  incr seq;
  (match open_out_gen [ Open_append; Open_creat ] 0o644 path with
  | oc ->
      output_string oc line;
      output_char oc '\n';
      close_out oc
  | exception Sys_error msg -> Printf.eprintf "liger: ledger append failed: %s\n%!" msg);
  Mutex.unlock emit_mutex

(* ---------------- the background emitter ---------------- *)

let stop_flag = Atomic.make false
let exited = Atomic.make true
let ledger = Atomic.make ""  (* where the emitter appends *)

let active () = not (Atomic.get exited)

let emitter_loop every =
  let slept = ref 0.0 in
  while not (Atomic.get stop_flag) do
    if !slept >= every then begin
      slept := 0.0;
      tick ~path:(Atomic.get ledger) ()
    end
    else begin
      (* sleep in small increments so stop () takes effect promptly *)
      let d = Float.min 0.25 (every -. !slept) in
      Thread.delay d;
      slept := !slept +. d
    end
  done;
  Atomic.set exited true

(** Start the periodic emitter appending to [path].  The first call fixes
    the interval; a later call only moves the ledger to [path].  Implies
    an enabled metrics registry — there is nothing to snapshot
    otherwise. *)
let start ~every ~path =
  Atomic.set ledger path;
  if (not (active ())) && every > 0.0 then begin
    Metrics.enable ();
    Atomic.set stop_flag false;
    Atomic.set exited false;
    ignore (Thread.create emitter_loop every)
  end

(** Stop the emitter and wait (at most a few seconds) for a tick in
    progress to land, so no periodic line races what the caller writes
    next.  The wait is bounded rather than a join: this can run inside a
    signal handler that interrupted a thread the emitter waits on. *)
let stop () =
  if active () then begin
    Atomic.set stop_flag true;
    let deadline = Unix.gettimeofday () +. 2.0 in
    while active () && Unix.gettimeofday () < deadline do
      Thread.delay 0.005
    done
  end
