(** code2seq (Alon et al. 2019): the strongest static baseline in Table 2.

    Differences from code2vec that matter here: terminals are decomposed
    into {e sub-tokens} (summed embeddings), paths are encoded as node-type
    {e sequences} by an RNN rather than hashed whole, and the method name is
    {e generated} sub-token by sub-token with a decoder attending over the
    encoded paths. *)

open Liger_tensor
open Liger_trace
open Liger_nn
open Liger_core
open Liger_lang

type enc_path = {
  left : int list;   (* sub-token ids of the left terminal *)
  path : int list;   (* node-type token ids along the path *)
  right : int list;
}

type t = {
  store : Param.store;
  vocab : Vocab.t;
  embedding : Embedding_layer.t;
  path_rnn : Rnn_cell.t;
  combine : Linear.t;
  decoder : Decoder.t option;
  classifier : Linear.t option;
  path_seed : int;
  cache : (int, enc_path list) Hashtbl.t;
  cache_lock : Mutex.t;  (* predictions run in parallel; see Train.predictions *)
}

let create ?(dim = 16) ?(seed = 17) ?(path_seed = 2017) vocab (task : Liger_model.task) =
  let store = Param.create_store ~seed () in
  let embedding = Embedding_layer.create store "tok" vocab ~dim in
  let path_rnn = Rnn_cell.create ~kind:Rnn_cell.Gru store "path" ~dim_in:dim ~dim_hidden:dim in
  let combine = Linear.create store "combine" ~dim_in:(3 * dim) ~dim_out:dim in
  let decoder, classifier =
    match task with
    | Liger_model.Naming ->
        (Some (Decoder.create store "dec" embedding ~dim_hidden:dim ~dim_mem:dim), None)
    | Liger_model.Classify n -> (None, Some (Linear.create store "cls" ~dim_in:dim ~dim_out:n))
  in
  { store; vocab; embedding; path_rnn; combine; decoder; classifier; path_seed;
    cache = Hashtbl.create 256; cache_lock = Mutex.create () }

let store t = t.store
let num_params t = Param.num_params t.store

let terminal_subtokens tok =
  match Subtoken.split tok with [] -> [ tok ] | ts -> ts

(** Register a method's sub-tokens and path node types into a building
    vocabulary — call for every training method {e before} [create]. *)
let register ?(path_seed = 2017) vocab (meth : Ast.meth) =
  (* the method's own sub-tokens are decoder targets *)
  List.iter (fun s -> ignore (Vocab.id vocab s)) (terminal_subtokens meth.Ast.mname);
  let rng = Rng.create (path_seed + Hashtbl.hash meth.Ast.mname) in
  let contexts = Ast_paths.extract rng (Encode.meth_tree meth) in
  List.iter
    (fun (c : Ast_paths.context) ->
      List.iter (fun s -> ignore (Vocab.id vocab s)) (terminal_subtokens c.Ast_paths.left);
      List.iter (fun s -> ignore (Vocab.id vocab s)) (terminal_subtokens c.Ast_paths.right);
      List.iter (fun s -> ignore (Vocab.id vocab s)) c.Ast_paths.path)
    contexts

let paths_of t (ex : Common.enc_example) =
  match Mutex.protect t.cache_lock (fun () -> Hashtbl.find_opt t.cache ex.Common.uid) with
  | Some ps -> ps
  | None ->
      let meth = ex.Common.meth in
      let rng = Rng.create (t.path_seed + Hashtbl.hash meth.Ast.mname) in
      let ps =
        Ast_paths.extract rng (Encode.meth_tree meth)
        |> List.map (fun (c : Ast_paths.context) ->
               {
                 left = List.map (Vocab.id t.vocab) (terminal_subtokens c.Ast_paths.left);
                 path = List.map (Vocab.id t.vocab) c.Ast_paths.path;
                 right = List.map (Vocab.id t.vocab) (terminal_subtokens c.Ast_paths.right);
               })
      in
      (* a concurrent extraction of the same example computed the same value *)
      Mutex.protect t.cache_lock (fun () ->
          if not (Hashtbl.mem t.cache ex.Common.uid) then
            Hashtbl.add t.cache ex.Common.uid ps);
      ps

(* code2seq owns its vocabulary (built over the raw sources, not traces), so
   decoder targets are re-derived from the label rather than taken from the
   example's main-vocabulary target ids. *)
let target_ids t (ex : Common.enc_example) =
  match ex.Common.label with
  | Common.Name name -> List.map (Vocab.id t.vocab) (Subtoken.split name)
  | Common.Class c -> [ c ]

(* Every path of every example is one lane: terminals sum their sub-token
   embeddings (group sums; an empty terminal is a zero row), the path RNN
   runs over node types as a ragged recurrence, and the combiner mixes the
   three.  The memory is each example's paths; the program embedding is
   their mean (zero, with one padded slot, for an example without
   paths). *)
let encode_batch t btape (exs : Common.enc_example array) =
  let g_n = Array.length exs in
  let d = Embedding_layer.dim t.embedding in
  let per_ex = Array.map (fun ex -> Array.of_list (paths_of t ex)) exs in
  let paths = Array.concat (Array.to_list per_ex) in
  let p_n = Array.length paths in
  if p_n = 0 then
    {
      Liger_model.benc_prog = Batched.zeros btape ~rows:g_n ~cols:d;
      benc_mem = [| Batched.zeros btape ~rows:g_n ~cols:d |];
      benc_mem_mask = Tensor.zeros g_n 1;
    }
  else begin
    let terminal side =
      let ids = Array.of_list (List.concat_map (fun p -> side p) (Array.to_list paths)) in
      let groups =
        Array.of_list
          (List.concat (List.mapi (fun i p -> List.map (fun _ -> i) (side p)) (Array.to_list paths)))
      in
      if ids = [||] then Batched.zeros btape ~rows:p_n ~cols:d
      else
        Batched.group_sum btape (Embedding_layer.embed_ids t.embedding btape ids) ~groups
          ~n_groups:p_n
    in
    let left = terminal (fun p -> p.left) in
    let right = terminal (fun p -> p.right) in
    let node_types = Array.map (fun p -> Array.of_list p.path) paths in
    let path =
      Liger_model.last_ragged t.path_rnn btape ~lengths:(Array.map Array.length node_types)
        ~input:(fun v ->
          Embedding_layer.embed_ids t.embedding btape
            (Array.map (fun a -> if v < Array.length a then a.(v) else 0) node_types))
    in
    let encoded =
      Linear.forward_tanh_batch t.combine btape (Batched.concat_cols btape [ left; path; right ])
    in
    let inv_count =
      Array.concat
        (Array.to_list
           (Array.map
              (fun ps ->
                Array.make d (if ps = [||] then 0.0 else 1.0 /. float_of_int (Array.length ps)))
              per_ex))
    in
    let lane_ex =
      Array.concat (Array.to_list (Array.mapi (fun g ps -> Array.make (Array.length ps) g) per_ex))
    in
    let benc_prog =
      Batched.mul btape
        (Batched.group_sum btape encoded ~groups:lane_ex ~n_groups:g_n)
        (Batched.const_arr btape ~rows:g_n ~cols:d inv_count)
    in
    let benc_mem, benc_mem_mask =
      Liger_model.memory_slots btape encoded
        (Liger_model.segment_rows (Array.map Array.length per_ex))
    in
    { Liger_model.benc_prog; benc_mem; benc_mem_mask }
  end

let loss_batch t btape (exs : Common.enc_example array) =
  Liger_model.head_losses btape ~decoder:t.decoder ~classifier:t.classifier
    (encode_batch t btape exs) ~target_ids:(target_ids t) exs

let predict_batch t (exs : Common.enc_example array) =
  if Array.length exs = 0 then [||]
  else
    Liger_model.with_tape (fun btape ->
        Liger_model.head_predictions btape ~decoder:t.decoder ~classifier:t.classifier
          ~vocab:t.vocab (encode_batch t btape exs))
