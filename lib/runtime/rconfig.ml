(* Runtime configuration switches for the overhead methodology of paper
   §9.2.  The three measurement configurations are:

     alpha: regular execution of the multi-GPU application;
     beta:  transfers disabled, but dependency resolution and tracker
            updates still performed;
     gamma: dependency resolution and tracker updates disabled (which
            also disables the transfers they would generate).

   beta and gamma runs are performance-mode only: their buffer contents
   are not meaningful. *)

type t = {
  transfers : bool; (* issue inter-device transfers *)
  patterns : bool; (* run enumerators, tracker queries and updates *)
}

let alpha = { transfers = true; patterns = true }
let beta = { transfers = false; patterns = true }
let gamma = { transfers = false; patterns = false }

let is_valid c = c.patterns || not c.transfers
