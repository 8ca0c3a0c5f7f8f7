(** Dense affine layers. *)

open Liger_tensor
module P = Liger_obs.Profile
module D = Liger_obs.Dynamics

let layer = P.register_layer "linear"
let lname = "linear"

type t = { w : Param.t; b : Param.t }

let create store name ~dim_in ~dim_out =
  {
    w = Param.matrix store (name ^ ".w") dim_out dim_in;
    b = Param.vector store (name ^ ".b") dim_out;
  }

(* profiling wrappers branch before building the closure, so the disabled
   path is a direct call with no allocation *)
let forward_batch t btape x =
  if P.on () then P.with_layer layer (fun () -> Batched.affine btape ~w:t.w ~b:t.b x)
  else Batched.affine btape ~w:t.w ~b:t.b x

(* the fused-activation variants additionally set the dynamics ambient
   layer so saturation samples taken inside Batched attribute here when no
   enclosing model layer claimed them; same branch-before-closure shape *)
let forward_tanh_batch t btape x =
  if D.on () then
    D.with_layer lname (fun () ->
        if P.on () then
          P.with_layer layer (fun () -> Batched.affine_tanh btape ~w:t.w ~b:t.b x)
        else Batched.affine_tanh btape ~w:t.w ~b:t.b x)
  else if P.on () then
    P.with_layer layer (fun () -> Batched.affine_tanh btape ~w:t.w ~b:t.b x)
  else Batched.affine_tanh btape ~w:t.w ~b:t.b x

let forward_sigmoid_batch t btape x =
  if D.on () then
    D.with_layer lname (fun () ->
        if P.on () then
          P.with_layer layer (fun () -> Batched.affine_sigmoid btape ~w:t.w ~b:t.b x)
        else Batched.affine_sigmoid btape ~w:t.w ~b:t.b x)
  else if P.on () then
    P.with_layer layer (fun () -> Batched.affine_sigmoid btape ~w:t.w ~b:t.b x)
  else Batched.affine_sigmoid btape ~w:t.w ~b:t.b x
