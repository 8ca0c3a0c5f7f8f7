(* The model profiler and benchmark history: disabled-path inertness (no
   allocation, nothing recorded), FLOP/byte accounting against the documented
   conventions on a known-shape matvec, live/peak memory gauge monotonicity,
   per-layer forward AND backward attribution through the tape tags,
   Bench_store JSONL roundtrip, the diff/render goldens behind
   [liger stats --diff] on histories and run ledgers, and validate_file's
   profile cross-check on every ledger line. *)

open Liger_tensor
open Liger_nn
module Obs = Liger_obs.Obs
module OM = Liger_obs.Metrics
module P = Liger_obs.Profile
module B = Liger_obs.Bench_store
module Json = Liger_obs.Json

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* profiling/metrics flags are process-global; every test pins its own *)
let fresh ~profiling =
  OM.enable ();
  OM.reset ();
  P.reset ();
  if profiling then P.enable () else P.disable ()

(* ------------------------------------------------------------------ *)
(* Disabled path: no allocation, nothing recorded                      *)
(* ------------------------------------------------------------------ *)

let test_disabled_inert () =
  fresh ~profiling:false;
  let o = P.register_op "test.inert" in
  (* the call-site guard is the contract: when profiling is off the float
     arguments must never be computed or boxed *)
  let before = Gc.allocated_bytes () in
  for i = 1 to 1000 do
    if P.on () then P.op o ~flops:(float_of_int (2 * i)) ~bytes:16.0
  done;
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "guarded loop allocates nothing (saw %.0f bytes)" allocated)
    true (allocated < 256.0);
  (* library code behind the same guard records nothing while disabled *)
  let tape = Batched.tape () in
  let store = Param.create_store ~seed:1 () in
  let w = Param.matrix store "w" 4 6 in
  let y = Batched.matmul_nt tape (Batched.const_arr tape ~rows:1 ~cols:6 (Array.make 6 1.0)) w in
  Batched.backward tape (Batched.sum_all tape y);
  let s = P.snapshot () in
  Alcotest.(check int) "no ops recorded while disabled" 0 (List.length s.P.ops);
  Alcotest.(check int) "no layers recorded while disabled" 0 (List.length s.P.layers);
  Alcotest.(check int) "no live bytes tracked while disabled" 0 (P.live_bytes ())

(* ------------------------------------------------------------------ *)
(* FLOP/byte accounting on a known shape                               *)
(* ------------------------------------------------------------------ *)

let find_op (s : P.snapshot) name =
  match List.find_opt (fun (o : P.op_stat) -> o.P.op_name = name) s.P.ops with
  | Some o -> o
  | None -> Alcotest.fail (name ^ " not in snapshot")

let test_matvec_flops () =
  fresh ~profiling:true;
  let store = Param.create_store ~seed:2 () in
  let w = Param.matrix store "w" 4 6 in
  let tape = Batched.tape () in
  let x = Batched.const_arr tape ~rows:1 ~cols:6 (Array.make 6 1.0) in
  let y = Batched.matmul_nt tape x w in
  Batched.backward tape (Batched.sum_all tape y);
  let s = P.snapshot () in
  (* documented conventions (batched.ml): a one-lane GEMM (a matvec) is
     2·lanes·r·c forward FLOPs and 16·lanes·r bytes (value + gradient
     buffers), backward 4·lanes·r·c FLOPs for the dX + dW pair *)
  let fwd = find_op s "bad.gemm" in
  Alcotest.(check int) "matvec count" 1 fwd.P.count;
  Alcotest.(check (float 1e-9)) "matvec fwd flops = 2rc" 48.0 fwd.P.flops;
  Alcotest.(check (float 1e-9)) "matvec fwd bytes = 16r" 64.0 fwd.P.bytes;
  let bwd = find_op s "bad.gemm.bwd" in
  Alcotest.(check int) "matvec bwd count" 1 bwd.P.count;
  Alcotest.(check (float 1e-9)) "matvec bwd flops = 4rc" 96.0 bwd.P.flops;
  (* the input leaf: no FLOPs, 16 bytes per element *)
  let const = find_op s "bad.const" in
  Alcotest.(check (float 1e-9)) "const flops = 0" 0.0 const.P.flops;
  Alcotest.(check (float 1e-9)) "const bytes = 16n" 96.0 const.P.bytes;
  (* sum: n forward, n backward, a 1x1 output *)
  let sum_fwd = find_op s "bad.sum_all" in
  Alcotest.(check (float 1e-9)) "sum fwd flops = n" 4.0 sum_fwd.P.flops;
  Alcotest.(check (float 1e-9)) "sum fwd bytes = 16" 16.0 sum_fwd.P.bytes;
  let sum_bwd = find_op s "bad.sum_all.bwd" in
  Alcotest.(check (float 1e-9)) "sum bwd flops = n" 4.0 sum_bwd.P.flops

(* ------------------------------------------------------------------ *)
(* Memory gauges                                                       *)
(* ------------------------------------------------------------------ *)

let test_memory_monotonic () =
  fresh ~profiling:true;
  Alcotest.(check int) "live starts at 0" 0 (P.live_bytes ());
  P.alloc 100;
  Alcotest.(check int) "live after alloc" 100 (P.live_bytes ());
  Alcotest.(check int) "peak tracks live" 100 (P.peak_bytes ());
  P.alloc 50;
  Alcotest.(check int) "peak at high-water mark" 150 (P.peak_bytes ());
  P.release 100;
  Alcotest.(check int) "release lowers live" 50 (P.live_bytes ());
  Alcotest.(check int) "peak never decreases" 150 (P.peak_bytes ());
  P.alloc 20;
  Alcotest.(check int) "live tracks churn" 70 (P.live_bytes ());
  Alcotest.(check int) "peak unchanged below the mark" 150 (P.peak_bytes ());
  Alcotest.(check bool) "peak >= live always" true (P.peak_bytes () >= P.live_bytes ());
  (* a tape's pushes feed the same gauges; backward releases them *)
  let tape = Batched.tape () in
  let live0 = P.live_bytes () in
  let a = Batched.const_arr tape ~rows:2 ~cols:4 (Array.make 8 1.0) in
  Alcotest.(check bool) "tape push raises live" true (P.live_bytes () > live0);
  Batched.backward tape (Batched.sum_all tape a);
  Alcotest.(check int) "backward releases the tape" live0 (P.live_bytes ())

(* ------------------------------------------------------------------ *)
(* Per-layer attribution                                               *)
(* ------------------------------------------------------------------ *)

let find_layer (s : P.snapshot) name =
  match List.find_opt (fun (l : P.layer_stat) -> l.P.layer_name = name) s.P.layers with
  | Some l -> l
  | None -> Alcotest.fail (name ^ " not in snapshot")

let test_layer_fwd_bwd_nonzero () =
  fresh ~profiling:true;
  let store = Param.create_store ~seed:3 () in
  let lin = Linear.create store "lin" ~dim_in:128 ~dim_out:128 in
  let tape = Batched.tape () in
  let x = Batched.const_arr tape ~rows:1 ~cols:128 (Array.make 128 0.5) in
  let total = ref (Batched.zeros tape ~rows:1 ~cols:1) in
  for _ = 1 to 50 do
    total := Batched.add tape !total (Batched.sum_all tape (Linear.forward_batch lin tape x))
  done;
  Batched.backward tape !total;
  let s = P.snapshot () in
  let l = find_layer s "linear" in
  Alcotest.(check int) "one call per forward" 50 l.P.calls;
  Alcotest.(check bool) "forward time nonzero" true (l.P.fwd_total_s > 0.0);
  Alcotest.(check bool) "self time <= total" true (l.P.fwd_self_s <= l.P.fwd_total_s);
  (* the GEMM node built inside the layer frame carries its tag, so
     backward time lands on the layer, not on (untagged) *)
  Alcotest.(check bool) "backward time nonzero" true (l.P.bwd_s > 0.0);
  Alcotest.(check bool) "untagged backward time non-negative" true (s.P.untagged_bwd_s >= 0.0)

(* ------------------------------------------------------------------ *)
(* Bench_store: JSONL roundtrip and last_matching                      *)
(* ------------------------------------------------------------------ *)

let r1 =
  { B.benchmark = "parallel-corpus"; rev = "abc1234"; date = "2026-08-07T10:00:00Z";
    jobs = 2; metrics = [ ("speedup", 1.5); ("par_methods_per_second", 4.0) ] }

let r2 =
  { B.benchmark = "parallel-corpus"; rev = "def5678"; date = "2026-08-07T11:00:00Z";
    jobs = 2; metrics = [ ("speedup", 0.6); ("par_methods_per_second", 2.0) ] }

let test_history_roundtrip () =
  let path = Filename.temp_file "liger" ".history.jsonl" in
  B.append ~path r1;
  B.append ~path r2;
  (match B.load path with
  | Error msg -> Alcotest.fail msg
  | Ok records ->
      Alcotest.(check int) "two records" 2 (List.length records);
      let got = List.nth records 0 in
      Alcotest.(check string) "benchmark" r1.B.benchmark got.B.benchmark;
      Alcotest.(check string) "rev" r1.B.rev got.B.rev;
      Alcotest.(check string) "date" r1.B.date got.B.date;
      Alcotest.(check int) "jobs" r1.B.jobs got.B.jobs;
      Alcotest.(check (list (pair string (float 1e-9)))) "metrics survive (sorted)"
        (List.sort compare r1.B.metrics)
        (List.sort compare got.B.metrics);
      (match B.last_matching ~jobs:2 ~benchmark:"parallel-corpus" records with
      | Some r -> Alcotest.(check string) "last_matching finds the newest" "def5678" r.B.rev
      | None -> Alcotest.fail "last_matching found nothing");
      Alcotest.(check bool) "last_matching filters by jobs" true
        (B.last_matching ~jobs:4 ~benchmark:"parallel-corpus" records = None));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Diff goldens                                                        *)
(* ------------------------------------------------------------------ *)

let test_diff_golden () =
  let rendered = B.render_diff ~threshold:0.25 r1.B.metrics r2.B.metrics in
  let expected =
    "metric                  before  after  change\n\
     par_methods_per_second       4      2    -50%  !\n\
     speedup                    1.5    0.6    -60%  !\n"
  in
  Alcotest.(check string) "render_diff golden" expected rendered;
  (* a metric present on one side only is reported with '-' and flagged *)
  let d = B.diff ~threshold:0.5 [ ("a", 1.0) ] [ ("a", 1.2); ("b", 3.0) ] in
  Alcotest.(check int) "union of names" 2 (List.length d);
  let a = List.nth d 0 and b = List.nth d 1 in
  Alcotest.(check bool) "within threshold unflagged" false a.B.flagged;
  Alcotest.(check bool) "missing side flagged" true b.B.flagged;
  Alcotest.(check bool) "missing side is nan" true (Float.is_nan b.B.before)

let test_stats_diff_histories () =
  let path = Filename.temp_file "liger" ".history.jsonl" in
  B.append ~path r1;
  B.append ~path r2;
  (match Obs.diff_history ~threshold:0.25 path with
  | Error msg -> Alcotest.fail msg
  | Ok text ->
      let expected =
        Printf.sprintf
          "diff: %s [parallel-corpus 2026-08-07T10:00:00Z@abc1234 jobs=2] -> %s \
           [parallel-corpus 2026-08-07T11:00:00Z@def5678 jobs=2]\n%s"
          path path
          (B.render_diff ~threshold:0.25 r1.B.metrics r2.B.metrics)
      in
      Alcotest.(check string) "diff_history golden" expected text);
  (* one record is not enough to diff *)
  let single = Filename.temp_file "liger" ".history.jsonl" in
  B.append ~path:single r1;
  (match Obs.diff_history single with
  | Ok _ -> Alcotest.fail "diff of a 1-record history should fail"
  | Error msg ->
      Alcotest.(check bool) "error names the record count" true
        (contains msg "need at least 2 records"));
  Sys.remove path;
  Sys.remove single

(* a run ledger of the registry's current snapshot, written with the
   ledger-line serializer; [extra_lines] are appended verbatim after it *)
let write_ledger ?(extra_lines = []) () =
  let path = Filename.temp_file "liger" ".metrics.jsonl" in
  let oc = open_out path in
  output_string oc (OM.to_line ~extra:[ ("ts", "1"); ("seq", "0") ] (OM.snapshot ()));
  List.iter (fun l -> output_string oc ("\n" ^ l)) extra_lines;
  output_char oc '\n';
  close_out oc;
  path

let test_stats_diff_files () =
  (* two run ledgers with controlled counters *)
  let write_snapshot v =
    fresh ~profiling:false;
    OM.add "pipeline.methods" v;
    OM.fadd "pipeline.seconds" (float_of_int v *. 0.5);
    write_ledger ()
  in
  let a = write_snapshot 100 and b = write_snapshot 80 in
  (match Obs.diff_files ~threshold:0.1 a b with
  | Error msg -> Alcotest.fail msg
  | Ok text ->
      let expected =
        Printf.sprintf
          "diff: %s [snapshot #0] -> %s [snapshot #0]\n\
           metric            before  after  change\n\
           pipeline.methods     100     80    -20%%  !\n\
           pipeline.seconds      50     40    -20%%  !\n"
          a b
      in
      Alcotest.(check string) "diff_files golden" expected text);
  Sys.remove a;
  Sys.remove b

(* ------------------------------------------------------------------ *)
(* validate_file: the profile cross-check                              *)
(* ------------------------------------------------------------------ *)

(* an op counter without its flops twin was not produced by publish *)
let bad_profile_line =
  {|{"ts":2,"seq":1,"counters":{"profile.op_count{op=bad.gemm}":1},"fcounters":{},"gauges":{},"histograms":{}}|}

let test_validate_profile_section () =
  fresh ~profiling:true;
  let store = Param.create_store ~seed:4 () in
  let w = Param.matrix store "w" 3 3 in
  let tape = Batched.tape () in
  let y = Batched.matmul_nt tape (Batched.const_arr tape ~rows:1 ~cols:3 (Array.make 3 1.0)) w in
  Batched.backward tape (Batched.sum_all tape y);
  P.publish ();
  let path = write_ledger () in
  (match Obs.validate_file path with
  | Error msg -> Alcotest.fail ("published snapshot rejected: " ^ msg)
  | Ok summary ->
      Alcotest.(check bool) "summary mentions the profile section" true
        (contains summary "profile section"));
  Sys.remove path;
  let bad = Filename.temp_file "liger" ".metrics.jsonl" in
  let oc = open_out bad in
  output_string oc (bad_profile_line ^ "\n");
  close_out oc;
  (match Obs.validate_file bad with
  | Ok _ -> Alcotest.fail "incomplete profile section accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the missing metric" true
        (contains msg "profile.op_flops"));
  Sys.remove bad

(* every ledger line gets the full check, not only a one-line ledger's *)
let test_validate_profile_every_line () =
  fresh ~profiling:false;
  OM.incr "pipeline.methods";
  let path = write_ledger ~extra_lines:[ bad_profile_line ] () in
  (match Obs.validate_file path with
  | Ok summary -> Alcotest.failf "two-line ledger with a bad profile accepted: %s" summary
  | Error msg ->
      Alcotest.(check bool) "error names the missing metric" true
        (contains msg "profile.op_flops");
      Alcotest.(check bool) "error names the line" true (contains msg "line 2"));
  Sys.remove path

let () =
  Alcotest.run "profile"
    [
      ( "contract",
        [ Alcotest.test_case "disabled path is inert" `Quick test_disabled_inert ] );
      ( "accounting",
        [
          Alcotest.test_case "matvec FLOPs/bytes match conventions" `Quick test_matvec_flops;
          Alcotest.test_case "live/peak memory monotonicity" `Quick test_memory_monotonic;
          Alcotest.test_case "layer forward+backward attribution" `Quick
            test_layer_fwd_bwd_nonzero;
        ] );
      ( "history",
        [
          Alcotest.test_case "JSONL roundtrip and last_matching" `Quick test_history_roundtrip;
          Alcotest.test_case "diff golden" `Quick test_diff_golden;
          Alcotest.test_case "stats --diff on a history" `Quick test_stats_diff_histories;
          Alcotest.test_case "stats --diff on snapshots" `Quick test_stats_diff_files;
          Alcotest.test_case "validate checks the profile section" `Quick
            test_validate_profile_section;
          Alcotest.test_case "validate checks the profile on every ledger line" `Quick
            test_validate_profile_every_line;
        ] );
    ]
