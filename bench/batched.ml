(* Batch-size curve of the autodiff engine: LiGer forward and
   forward+backward time per example at each batch size, relative to
   batch 1 (one example per tape), on the same corpus and parameters.

   Usage:
     dune exec bench/batched.exe                  # default corpus (n=60)
     LIGER_BENCH_N=120 dune exec bench/batched.exe
     dune exec bench/batched.exe -- 8 16 32       # batch sizes to probe

   Batch 1 always runs first as the reference; each larger size prints
   its per-example times and the speedup over batch 1.  This is the
   number the train.LiGer examples_per_second history gate tracks. *)

open Liger_tensor
open Liger_core
open Liger_eval

let () =
  let batch_sizes =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ 8; 16; 32 ]
    | args -> List.map int_of_string args
  in
  let n =
    match Sys.getenv_opt "LIGER_BENCH_N" with
    | Some s -> int_of_string s
    | None -> 60
  in
  let enc =
    { Common.default_enc_config with Common.max_paths = 4; max_concrete = 3; max_steps = 16 }
  in
  Printf.printf "building corpus (n=%d)...\n%!" n;
  let corpus =
    Liger_dataset.Pipeline.build_naming ~enc_config:enc (Rng.create 4242)
      ~name:"batched-bench" ~n
  in
  let train = Array.of_list corpus.Liger_dataset.Pipeline.train in
  let n_ex = Array.length train in
  Printf.printf "train examples: %d\n%!" n_ex;
  let wrap, _ = Zoo.liger ~vocab:corpus.Liger_dataset.Pipeline.vocab Liger_model.Naming in
  let loss_batch = (Train.hooks wrap).Train.train_loss_batch in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let reps = 3 in
  let run_chunks bs backward () =
    let off = ref 0 in
    while !off < n_ex do
      let len = min bs (n_ex - !off) in
      let chunk = Array.sub train !off len in
      off := !off + len;
      let btape = Batched.tape () in
      let losses = loss_batch btape chunk in
      if backward then begin
        Batched.backward btape (Batched.sum_all btape losses);
        Param.zero_grads wrap.Train.store
      end
      else Batched.discard btape
    done
  in
  let measure bs =
    let fwd = time (fun () -> for _ = 1 to reps do run_chunks bs false () done) in
    let fb = time (fun () -> for _ = 1 to reps do run_chunks bs true () done) in
    (fwd, fb)
  in
  let per_ex_us dt = dt /. float_of_int (reps * n_ex) *. 1e6 in
  let fwd1, fb1 = measure 1 in
  Printf.printf "\n%-14s %14s %14s   %s\n" "batch" "fwd us/ex" "fwd+bwd us/ex"
    "speedup over batch 1 (fwd / fwd+bwd)";
  Printf.printf "%-14s %14.1f %14.1f   (1.00x / 1.00x)\n%!" "1" (per_ex_us fwd1) (per_ex_us fb1);
  List.iter
    (fun bs ->
      if bs > 1 then begin
        let fwd, fb = measure bs in
        Printf.printf "%-14s %14.1f %14.1f   (%.2fx / %.2fx)\n%!" (string_of_int bs)
          (per_ex_us fwd) (per_ex_us fb) (fwd1 /. fwd) (fb1 /. fb)
      end)
    batch_sizes
