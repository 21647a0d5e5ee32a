(* 3-dimensional extents, mirroring CUDA's dim3.  The axis order used
   throughout the code base is (z, y, x) when iterating hierarchically
   and named fields otherwise. *)

type t = { x : int; y : int; z : int }

type axis = X | Y | Z

let make ?(y = 1) ?(z = 1) x =
  if x < 1 || y < 1 || z < 1 then invalid_arg "Dim3.make: extents must be >= 1";
  { x; y; z }

let one = { x = 1; y = 1; z = 1 }

let volume d = d.x * d.y * d.z

let get d = function X -> d.x | Y -> d.y | Z -> d.z

let set d axis v =
  match axis with X -> { d with x = v } | Y -> { d with y = v } | Z -> { d with z = v }

let axes = [ Z; Y; X ]

let axis_name = function X -> "x" | Y -> "y" | Z -> "z"

let equal a b = a.x = b.x && a.y = b.y && a.z = b.z

(* Iterate over all coordinates in (z, y, x) lexicographic order. *)
let iter d f =
  for z = 0 to d.z - 1 do
    for y = 0 to d.y - 1 do
      for x = 0 to d.x - 1 do
        f { x; y; z }
      done
    done
  done

let pp fmt d = Format.fprintf fmt "(%d, %d, %d)" d.x d.y d.z
