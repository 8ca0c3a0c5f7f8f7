(** Order statistics for benchmark samples.

    Percentiles use the nearest-rank definition on a sorted copy: the
    p-th percentile of [n] samples is the sample of rank [ceil (p n / 100)]
    (1-based), so every reported value is a value that was measured. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* rank (1-based) of the p-th percentile among n samples *)
let rank ~n p =
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n -. 1e-9)) in
  max 1 (min n r)

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then Float.nan else a.(rank ~n p - 1)

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 50.0

(** A tail figure: the value at [pct], how many samples lie strictly
    beyond its rank, and the sample count it was taken from. *)
type tail = { pct : float; value : float; beyond : int; samples : int }

(** The percentiles a tail may be reported at, highest first. *)
let ladder = [ 99.9; 99.5; 99.0; 98.0; 95.0; 90.0; 80.0; 75.0; 50.0 ]

(** The highest percentile of {!ladder} that has at least [min_beyond]
    (default ten) samples beyond it.  With too few samples for even the
    median, the maximum is returned with [pct = 100.] and [beyond = 0],
    so a thin sample is visible rather than silently over-claimed. *)
let tail ?(min_beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  let beyond p = n - rank ~n p in
  match List.find_opt (fun p -> n > 0 && beyond p >= min_beyond) ladder with
  | Some p -> { pct = p; value = percentile_sorted a p; beyond = beyond p; samples = n }
  | None ->
      { pct = 100.0; value = (if n = 0 then Float.nan else a.(n - 1)); beyond = 0; samples = n }
