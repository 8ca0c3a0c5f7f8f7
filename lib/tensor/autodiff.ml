(** Names kept for the benchmark's replay of the training loop, which
    predates the single engine: a tape is a {!Batched} tape and a model's
    loss on one example is its one-lane batch loss.  Nothing in the
    library calls these. *)

type tape = Batched.tape
type node = Batched.node

let tape = Batched.tape
let scalar_value = Batched.scalar_value
let backward = Batched.backward
