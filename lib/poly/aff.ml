(* Affine expressions over a {!Space}.

   An affine expression is  sum_i coeffs.(i) * var_i + const  where the
   variable vector is the space's combined [params ++ dims] vector. *)

type t = { space : Space.t; coeffs : int array; const : int }

let zero space = { space; coeffs = Array.make (Space.n_total space) 0; const = 0 }

let const space c = { (zero space) with const = c }

let var space name =
  let a = zero space in
  a.coeffs.(Space.var_index_exn space name) <- 1;
  a

let var_i space i =
  let a = zero space in
  a.coeffs.(i) <- 1;
  a

let of_terms space terms ~const =
  let a = zero space in
  List.iter (fun (c, name) ->
      let i = Space.var_index_exn space name in
      a.coeffs.(i) <- Ints.add a.coeffs.(i) c)
    terms;
  { a with const }

let space t = t.space
let coeff t i = t.coeffs.(i)
let constant t = t.const

let check_same a b =
  if not (Space.equal a.space b.space) then invalid_arg "Aff: space mismatch"

let map2 f a b =
  check_same a b;
  { space = a.space;
    coeffs = Array.init (Array.length a.coeffs) (fun i -> f a.coeffs.(i) b.coeffs.(i));
    const = f a.const b.const }

let add a b = map2 Ints.add a b
let sub a b = map2 Ints.sub a b

let scale k a =
  { a with coeffs = Array.map (Ints.mul k) a.coeffs; const = Ints.mul k a.const }

let neg a = scale (-1) a

let add_const a c = { a with const = Ints.add a.const c }

let set_coeff a i c =
  let coeffs = Array.copy a.coeffs in
  coeffs.(i) <- c;
  { a with coeffs }

let is_constant a = Array.for_all (fun c -> c = 0) a.coeffs

let equal a b =
  Space.equal a.space b.space && a.coeffs = b.coeffs && a.const = b.const

(* Evaluate under a full assignment of the combined vector. *)
let eval a env =
  let acc = ref a.const in
  Array.iteri (fun i c -> if c <> 0 then acc := Ints.add !acc (Ints.mul c env.(i))) a.coeffs;
  !acc

(* Move the expression into a new space: [remap.(i)] gives the index in
   the new space of old variable [i], or [-1] if the variable is gone
   (its coefficient must then be zero). *)
let rebase a new_space remap =
  let coeffs = Array.make (Space.n_total new_space) 0 in
  Array.iteri (fun i c ->
      if c <> 0 then begin
        let j = remap.(i) in
        if j < 0 then invalid_arg "Aff.rebase: dropped variable has nonzero coefficient";
        coeffs.(j) <- Ints.add coeffs.(j) c
      end)
    a.coeffs;
  { space = new_space; coeffs; const = a.const }

(* The row layout of {!Row}: coefficients, constant, then [tag]. *)
let to_row a tag =
  let n = Array.length a.coeffs in
  let r = Array.make (n + 2) tag in
  Array.blit a.coeffs 0 r 0 n;
  r.(n) <- a.const;
  r

let of_row space r =
  let n = Space.n_total space in
  { space; coeffs = Array.sub r 0 n; const = r.(n) }

let pp fmt a =
  let open Format in
  let first = ref true in
  let term c name =
    if c <> 0 then begin
      if !first then begin
        if c = 1 then fprintf fmt "%s" name
        else if c = -1 then fprintf fmt "-%s" name
        else fprintf fmt "%d%s" c name;
        first := false
      end
      else if c > 0 then
        if c = 1 then fprintf fmt " + %s" name else fprintf fmt " + %d%s" c name
      else if c = -1 then fprintf fmt " - %s" name
      else fprintf fmt " - %d%s" (-c) name
    end
  in
  Array.iteri (fun i c -> term c (Space.var_name a.space i)) a.coeffs;
  if !first then fprintf fmt "%d" a.const
  else if a.const > 0 then fprintf fmt " + %d" a.const
  else if a.const < 0 then fprintf fmt " - %d" (-a.const)
