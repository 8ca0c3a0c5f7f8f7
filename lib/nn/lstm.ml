(** A standard single-layer LSTM cell (kept alongside the GRU for ablations
    and as the sequential special case of the TreeLSTM). *)

open Liger_tensor
module P = Liger_obs.Profile
module D = Liger_obs.Dynamics

let layer = P.register_layer "lstm"
let lname = "lstm"

type t = {
  gates : Linear.t;  (* [i; f; o; u] stacked: 4H x (in + H) *)
  dim_hidden : int;
  h0 : Param.t;
  c0 : Param.t;
}

let create store name ~dim_in ~dim_hidden =
  {
    gates =
      Linear.create store (name ^ ".gates") ~dim_in:(dim_in + dim_hidden)
        ~dim_out:(4 * dim_hidden);
    dim_hidden;
    h0 = Param.vector store (name ^ ".h0") dim_hidden;
    c0 = Param.vector store (name ^ ".c0") dim_hidden;
  }

type bstate = { bh : Batched.node; bc : Batched.node }

let init_state_batch t btape ~lanes =
  {
    bh = Batched.of_param btape ~lanes t.h0;
    bc = Batched.of_param btape ~lanes t.c0;
  }

let step_batch_impl t btape ~state ~x =
  let d = t.dim_hidden in
  let xh = Batched.concat_cols btape [ x; state.bh ] in
  let pre = Linear.forward_batch t.gates btape xh in
  let i = Batched.sigmoid btape (Batched.slice_cols btape pre 0 d) in
  let f = Batched.sigmoid btape (Batched.slice_cols btape pre d d) in
  let o = Batched.sigmoid btape (Batched.slice_cols btape pre (2 * d) d) in
  let u = Batched.tanh_ btape (Batched.slice_cols btape pre (3 * d) d) in
  let c = Batched.muladd2 btape f state.bc i u in
  let h = Batched.mul btape o (Batched.tanh_ btape c) in
  { bh = h; bc = c }

let step_batch_guarded t btape ~state ~x =
  if P.on () then P.with_layer layer (fun () -> step_batch_impl t btape ~state ~x)
  else step_batch_impl t btape ~state ~x

(** One batched LSTM step; [?mask] freezes both [h] and [c] on padded lanes
    (exactly zero gradient through the frozen step). *)
let step_batch ?mask t btape ~state ~x =
  let next =
    if D.on () then D.with_layer lname (fun () -> step_batch_guarded t btape ~state ~x)
    else step_batch_guarded t btape ~state ~x
  in
  match mask with
  | None -> next
  | Some m ->
      {
        bh = Batched.select_rows btape ~mask:m next.bh state.bh;
        bc = Batched.select_rows btape ~mask:m next.bc state.bc;
      }

let run_batch t btape ~lanes steps =
  let state = ref (init_state_batch t btape ~lanes) in
  List.map
    (fun (x, mask) ->
      state := step_batch ?mask t btape ~state:!state ~x;
      !state.bh)
    steps

let last_batch t btape ~lanes steps =
  match List.rev (run_batch t btape ~lanes steps) with
  | [] -> (init_state_batch t btape ~lanes).bh
  | h :: _ -> h
