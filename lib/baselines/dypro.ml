(** DYPRO (Wang 2019): the dynamic-only baseline.

    DYPRO embeds each {e concrete} execution trace separately — there is no
    symbolic dimension and no grouping by path — and pools the per-trace
    embeddings into the program embedding.  Per §6.1 we feed it "the
    variable names together with their values": each variable embeds as the
    concatenation of its name-token embedding and its value embedding (an
    RNN over the flattened value for composites), a state RNN folds the
    variables, and a trace RNN folds the states.

    Compared to LiGer's encoder this is exactly the "remove static features
    and ungroup the traces" architecture the paper contrasts against
    (§6.3.1 explains the difference from LiGer-without-static). *)

open Liger_tensor
open Liger_trace
open Liger_nn
open Liger_core

type t = {
  store : Param.store;
  vocab : Vocab.t;
  embedding : Embedding_layer.t;
  f1 : Rnn_cell.t;        (* value RNN *)
  f2 : Rnn_cell.t;        (* state RNN over (name ++ value) vectors *)
  trace_rnn : Rnn_cell.t;
  decoder : Decoder.t option;
  classifier : Linear.t option;
}

let create ?(dim = 16) ?(seed = 11) vocab (task : Liger_model.task) =
  let store = Param.create_store ~seed () in
  let embedding = Embedding_layer.create store "vocab" vocab ~dim in
  let f1 = Rnn_cell.create ~kind:Rnn_cell.Vanilla store "f1" ~dim_in:dim ~dim_hidden:dim in
  let f2 = Rnn_cell.create ~kind:Rnn_cell.Vanilla store "f2" ~dim_in:(2 * dim) ~dim_hidden:dim in
  let trace_rnn = Rnn_cell.create ~kind:Rnn_cell.Gru store "trace" ~dim_in:dim ~dim_hidden:dim in
  let decoder, classifier =
    match task with
    | Liger_model.Naming ->
        (Some (Decoder.create store "dec" embedding ~dim_hidden:dim ~dim_mem:dim), None)
    | Liger_model.Classify n -> (None, Some (Linear.create store "cls" ~dim_in:dim ~dim_out:n))
  in
  { store; vocab; embedding; f1; f2; trace_rnn; decoder; classifier }

let store t = t.store
let num_params t = Param.num_params t.store

(* One lane per concrete trace the view exposes, grouped by example:
   (example, symbolic trace, concrete index).  The program embedding
   max-pools an example's final lane states; its decoder memory is every
   trace-RNN state of its lanes. *)
let encode_batch t btape ~view (exs : Common.enc_example array) =
  let d = Rnn_cell.dim_hidden t.trace_rnn in
  let g_n = Array.length exs in
  if g_n = 0 then invalid_arg "Dypro.encode_batch: empty batch";
  let lanes =
    Array.of_list
      (List.concat
         (List.mapi
            (fun g (ex : Common.enc_example) ->
              List.concat_map
                (fun tr -> List.init (Common.select_concrete view tr) (fun k -> (g, tr, k)))
                (Array.to_list (Common.select_traces view ex)))
            (Array.to_list exs)))
  in
  let lane_ex = Array.map (fun (g, _, _) -> g) lanes in
  let n_steps =
    Array.map (fun (_, (tr : Common.enc_trace), _) -> Array.length tr.Common.steps) lanes
  in
  let l_n = Array.length lanes in
  if l_n = 0 then Liger_model.trace_encoding btape ~d ~g_n ~lane_ex ~n_steps ~final:None []
  else begin
    (* a state is its variables as (name token, value tokens) pairs;
       identical states share one f2 lane *)
    let state_tbl = Hashtbl.create 256 and states_rev = ref [] in
    let state_idx =
      Array.map
        (fun (g, (tr : Common.enc_trace), k) ->
          let names = exs.(g).Common.var_name_ids in
          Array.map
            (fun (step : Common.enc_step) ->
              let state =
                Array.mapi
                  (fun i tokens ->
                    ((if i < Array.length names then names.(i) else Vocab.unk_id), tokens))
                  step.Common.var_tokens.(k)
              in
              Liger_model.intern state_tbl states_rev state state)
            tr.Common.steps)
        lanes
    in
    let states = Array.of_list (List.rev !states_rev) in
    let flat = Array.concat (Array.to_list states) in
    let values, rows =
      Liger_model.embed_values t.embedding t.f1 btape (Array.map snd flat)
    in
    let var_row = Liger_model.segment_rows (Array.map Array.length states) in
    (* f2 over each state's (name ++ value) vectors *)
    let var_at v pick =
      Array.mapi (fun s vars -> if v < Array.length vars then pick var_row.(s).(v) else 0) states
    in
    let state_vecs =
      Liger_model.last_ragged t.f2 btape ~lengths:(Array.map Array.length states)
        ~input:(fun v ->
          Batched.concat_cols btape
            [
              Embedding_layer.embed_ids t.embedding btape (var_at v (fun i -> fst flat.(i)));
              Batched.gather_rows btape (Option.get values) (var_at v (fun i -> rows.(i)));
            ])
    in
    (* the trace RNN over states, lanes in lockstep *)
    let max_s = Array.fold_left Stdlib.max 0 n_steps in
    let h = ref (Rnn_cell.init_state_batch t.trace_rnn btape ~lanes:l_n) in
    let mem_rev = ref [] in
    for j = 0 to max_s - 1 do
      let live l = j < n_steps.(l) in
      let x =
        Batched.gather_rows btape state_vecs
          (Array.init l_n (fun l -> if live l then state_idx.(l).(j) else 0))
      in
      h :=
        Rnn_cell.step_batch t.trace_rnn btape ~h:!h ~x
          ~mask:(Array.init l_n (fun l -> if live l then 1.0 else 0.0));
      mem_rev := !h :: !mem_rev
    done;
    Liger_model.trace_encoding btape ~d ~g_n ~lane_ex ~n_steps ~final:(Some !h)
      (List.rev !mem_rev)
  end

let loss_batch t btape ?(view = Common.full_view) (exs : Common.enc_example array) =
  Liger_model.head_losses btape ~decoder:t.decoder ~classifier:t.classifier
    (encode_batch t btape ~view exs)
    ~target_ids:(fun (ex : Common.enc_example) -> ex.Common.target_ids)
    exs

let predict_batch t ?(view = Common.full_view) (exs : Common.enc_example array) =
  if Array.length exs = 0 then [||]
  else
    Liger_model.with_tape (fun btape ->
        Liger_model.head_predictions btape ~decoder:t.decoder ~classifier:t.classifier
          ~vocab:t.vocab (encode_batch t btape ~view exs))

(** Program embeddings (frozen; for probing and the drift probe), one per
    example. *)
let embed_programs t ?(view = Common.full_view) (exs : Common.enc_example array) =
  if Array.length exs = 0 then [||]
  else
    Liger_model.with_tape (fun btape ->
        let enc = encode_batch t btape ~view exs in
        Array.init (Array.length exs) (fun g -> Batched.row_value enc.Liger_model.benc_prog g))

(** Frozen per-statement embeddings (same contract as
    {!Liger_core.Liger_model.statement_embeddings}): per statement id, the
    mean of every trace-RNN state produced while executing that statement,
    over all concrete traces the view exposes. *)
let statement_embeddings t ?(view = Common.full_view) (ex : Common.enc_example) =
  Liger_model.with_tape (fun btape ->
      let enc = encode_batch t btape ~view [| ex |] in
      (* memory slot m is the m-th (trace, concrete, step) in order *)
      let sids =
        Array.concat
          (List.concat_map
             (fun (tr : Common.enc_trace) ->
               List.init (Common.select_concrete view tr) (fun _ ->
                   Array.map (fun (s : Common.enc_step) -> s.Common.memo_key lsr 1) tr.Common.steps))
             (Array.to_list (Common.select_traces view ex)))
      in
      Liger_model.mean_by_statement sids (fun m -> Batched.row_value enc.Liger_model.benc_mem.(m) 0))
