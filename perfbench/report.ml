(** What one benchmark run found: named metrics with units, provenance
    notes, and the output checks counted as attempted and failed. *)

let metrics : (string * (float * string)) list ref = ref []
let notes : (string * string) list ref = ref []
let attempted = ref 0
let failed = ref 0

(** Set metric [name] (in [unit]) to [v]; a later call replaces it. *)
let metric name unit v = metrics := (name, (v, unit)) :: List.remove_assoc name !metrics

let note key v = notes := (key, v) :: List.remove_assoc key !notes

(** Count one output check; a failing one is described on stderr. *)
let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "check failed: %s\n%!" what
  end

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* CPU time the hypervisor took from this machine since boot, in seconds
   (the "steal" column of /proc/stat, in USER_HZ = 100 ticks); a run with
   much steal was measured on a shared, slowed host *)
let steal_s () =
  try
    In_channel.with_open_text "/proc/stat" (fun ic ->
        let line = Option.get (In_channel.input_line ic) in
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | "cpu" :: fields when List.length fields >= 8 ->
            float_of_string (List.nth fields 7) /. 100.0
        | _ -> Float.nan)
  with _ -> Float.nan

(** Like {!time}, but the time is the wall time less the CPU time the
    hypervisor took from the machine meanwhile ({!steal_s}).  The steal
    is the machine's, so this is the time on an unshared host only for
    work that keeps one CPU busy, as training does; with both CPUs busy
    it subtracts up to twice the delay. *)
let time_less_steal f =
  let s0 = steal_s () in
  let x, dt = time f in
  let stolen = steal_s () -. s0 in
  (x, if Float.is_nan stolen then dt else dt -. stolen)

(** Peak resident set size of this process so far, in MB (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> Float.nan
  in
  go ()

(** Record the median of [k] timed runs of [f] as [setup_s] and return
    the last result.  Set-up is repeated so that one slow start (page
    cache, scheduler) does not set the figure. *)
let setup ?(k = 3) f =
  let rec go i acc last =
    if i = k then (Option.get last, acc)
    else
      let x, dt = time f in
      go (i + 1) (dt :: acc) (Some x)
  in
  let x, times = go 0 [] None in
  metric "setup_s" "s" (Stats.median times);
  x
