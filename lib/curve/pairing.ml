(* The optimal ate pairing e : G1 x G2 -> GT on BN254, the pairing of the
   EIP-197 precompile.

   Miller loop.  f_{6u+2,Q}(P) over the signed (NAF) digits of 6u+2
   (u = Bn254.seed_decimal), followed by the two Frobenius-twisted
   closing additions with Q1 = pi(Q) and Q2 = -pi^2(Q).  The running
   point R = [k]Q lives on the D-twist E'(Fp2) in homogeneous projective
   coordinates, so no step inverts.  The loop touches Q only through the
   line coefficients of its doubling and addition steps, and those do not
   depend on P: {!G2_prepared} computes them once per G2 point.  Each
   step then evaluates a line at the affine P (4 Fp multiplications) and
   multiplies it into f as a sparse element (Fp12.mul_by_034).  A
   multi-Miller loop shares one f-squaring per step across all pairs.

   Final exponentiation.  f^((p^6 - 1)(p^2 + 1)) (conjugate, inverse,
   Frobenius), then the u-based hard-part chain of Fuentes-Castaneda,
   Knapp and Rodriguez-Henriquez ("Faster hashing to G2") with cyclotomic
   squaring.  The chain raises to lambda (p^4 - p^2 + 1)/r with
   lambda = 2u(6u^2 + 3u + 1), coprime to r, so the result is a
   bilinear, non-degenerate pairing; the exponent is derived from the
   chain itself and checked at module initialisation. *)

module Nat = Zkdet_num.Nat
module Fp = Zkdet_field.Bn254.Fp
module Fr = Zkdet_field.Bn254.Fr
module Telemetry = Zkdet_telemetry.Telemetry

module Gt = struct
  type t = Fp12.t

  let one = Fp12.one
  let equal = Fp12.equal
  let is_one = Fp12.is_one
  let mul = Fp12.mul
  let inv = Fp12.inv
  let pow_nat = Fp12.pow_nat
  let pow t (s : Fr.t) = Fp12.pow_nat t (Fr.to_nat s)
  let to_bytes = Fp12.to_bytes
  let pp = Fp12.pp
end

let u = Nat.of_decimal Zkdet_field.Bn254.seed_decimal

(* Non-adjacent form, least significant digit first. *)
let naf (n : Nat.t) : int array =
  let rec go n acc =
    if Nat.is_zero n then Array.of_list (List.rev acc)
    else if not (Nat.testbit n 0) then go (Nat.shift_right n 1) (0 :: acc)
    else if Nat.testbit n 1 then
      (* n = 3 mod 4: digit -1, continue with (n + 1) / 2. *)
      go (Nat.shift_right (Nat.add n Nat.one) 1) (-1 :: acc)
    else go (Nat.shift_right n 1) (1 :: acc)
  in
  let digits = go n [] in
  (* Check the digits evaluate back to n (the negative part separately,
     since Nat has no sign). *)
  let part sign =
    Array.fold_right
      (fun d acc -> Nat.add (Nat.shift_left acc 1) (if d = sign then Nat.one else Nat.zero))
      digits Nat.zero
  in
  assert (Nat.equal (Nat.sub (part 1) (part (-1))) n);
  digits

let ate_digits = naf (Nat.add (Nat.mul (Nat.of_int 6) u) Nat.two)
let u_digits = naf u
let nonzero digits = Array.fold_left (fun n d -> if d = 0 then n else n + 1) 0 digits

(* ------------------------------------------------------------------ *)
(* Prepared G2 points                                                  *)
(* ------------------------------------------------------------------ *)

let two_inv = Fp.inv (Fp.of_int 2)

(* pi(x, y) = (x^p gx, y^p gy) on the twist, with gx = xi^((p-1)/3) and
   gy = xi^((p-1)/2): the untwisted Frobenius pulled back through
   Psi(x, y) = (x w^2, y w^3), since w^6 = xi. *)
let frob_gx, frob_gy =
  let pm1 = Nat.sub Fp.modulus Nat.one in
  ( Fp2.pow_nat Fp2.xi (Nat.div pm1 (Nat.of_int 3)),
    Fp2.pow_nat Fp2.xi (Nat.div pm1 Nat.two) )

let twist_frobenius (x, y) =
  (Fp2.mul (Fp2.frobenius x) frob_gx, Fp2.mul (Fp2.frobenius y) frob_gy)

(* A line through R on the twist, evaluated at P = (px, py) as
   ell0 py + (ell1 px) w + ell2 v w. *)
type line = { ell0 : Fp2.t; ell1 : Fp2.t; ell2 : Fp2.t }

(* R = (x : y : z) on the twist, homogeneous: affine (x/z, y/z). *)
type proj = { mutable x : Fp2.t; mutable y : Fp2.t; mutable z : Fp2.t }

(* Tangent at R; R <- 2R. *)
let double_step (r : proj) : line =
  let a = Fp2.scale_fp (Fp2.mul r.x r.y) two_inv in
  let b = Fp2.sqr r.y in
  let c = Fp2.sqr r.z in
  let e = Fp2.mul G2.b2 (Fp2.add (Fp2.double c) c) in
  let f = Fp2.add (Fp2.double e) e in
  let g = Fp2.scale_fp (Fp2.add b f) two_inv in
  let h = Fp2.sub (Fp2.sqr (Fp2.add r.y r.z)) (Fp2.add b c) in
  let j = Fp2.sqr r.x in
  let e2 = Fp2.sqr e in
  r.x <- Fp2.mul a (Fp2.sub b f);
  r.y <- Fp2.sub (Fp2.sqr g) (Fp2.add (Fp2.double e2) e2);
  r.z <- Fp2.mul b h;
  { ell0 = Fp2.neg h; ell1 = Fp2.add (Fp2.double j) j; ell2 = Fp2.sub e b }

(* Chord through R and the affine Q; R <- R + Q. *)
let add_step (r : proj) ((qx, qy) : Fp2.t * Fp2.t) : line =
  let theta = Fp2.sub r.y (Fp2.mul qy r.z) in
  let lambda = Fp2.sub r.x (Fp2.mul qx r.z) in
  let c = Fp2.sqr theta in
  let d = Fp2.sqr lambda in
  let e = Fp2.mul lambda d in
  let f = Fp2.mul r.z c in
  let g = Fp2.mul r.x d in
  let h = Fp2.sub (Fp2.add e f) (Fp2.double g) in
  r.x <- Fp2.mul lambda h;
  r.y <- Fp2.sub (Fp2.mul theta (Fp2.sub g h)) (Fp2.mul e r.y);
  r.z <- Fp2.mul r.z e;
  {
    ell0 = lambda;
    ell1 = Fp2.neg theta;
    ell2 = Fp2.sub (Fp2.mul theta qx) (Fp2.mul lambda qy);
  }

(* Lines per prepared point: one doubling per digit below the top, one
   addition per non-zero such digit, and the two closing additions. *)
let lines_per_point =
  let below_top = Array.sub ate_digits 0 (Array.length ate_digits - 1) in
  Array.length below_top + nonzero below_top + 2

module G2_prepared = struct
  (* [lines] in Miller-loop order; empty for the point at infinity. *)
  type t = { lines : line array }

  let zero = { lines = [||] }
  let is_zero t = Array.length t.lines = 0

  let of_affine ((qx, qy) as q) =
    let r = { x = qx; y = qy; z = Fp2.one } in
    let neg_q = (qx, Fp2.neg qy) in
    let acc = ref [] in
    for i = Array.length ate_digits - 2 downto 0 do
      acc := double_step r :: !acc;
      match ate_digits.(i) with
      | 1 -> acc := add_step r q :: !acc
      | -1 -> acc := add_step r neg_q :: !acc
      | _ -> ()
    done;
    let q1 = twist_frobenius q in
    let q2x, q2y = twist_frobenius q1 in
    acc := add_step r q1 :: !acc;
    acc := add_step r (q2x, Fp2.neg q2y) :: !acc;
    let lines = Array.of_list (List.rev !acc) in
    assert (Array.length lines = lines_per_point);
    { lines }

  let of_g2 (q : G2.t) : t =
    match G2.to_affine q with None -> zero | Some q -> of_affine q
end

(* ------------------------------------------------------------------ *)
(* Miller loop                                                          *)
(* ------------------------------------------------------------------ *)

let ell f (l : line) (px, py) =
  Fp12.mul_by_034 f (Fp2.scale_fp l.ell0 py) (Fp2.scale_fp l.ell1 px) l.ell2

(* Fp12 squarings per multi-Miller loop (the first step's squaring of 1
   is skipped). *)
let miller_sqrs = Array.length ate_digits - 2

let multi_miller_loop (pairs : (G1.t * G2_prepared.t) list) : Fp12.t =
  let affine = G1.batch_to_affine (Array.of_list (List.map fst pairs)) in
  let live =
    List.mapi (fun i (_, q) -> (affine.(i), q)) pairs
    |> List.filter_map (function
         | Some p, (q : G2_prepared.t) when not (G2_prepared.is_zero q) -> Some (p, q.lines)
         | _ -> None)
    |> Array.of_list
  in
  let n = Array.length live in
  if n = 0 then Fp12.one
  else begin
    Telemetry.count "pairing.miller_loops" 1;
    Telemetry.count "pairing.fp12_sqr" miller_sqrs;
    Telemetry.count "pairing.fp12_sparse_mul" (n * lines_per_point);
    let f = ref Fp12.one in
    let k = ref 0 in
    let step () =
      for j = 0 to n - 1 do
        let p, lines = live.(j) in
        f := ell !f lines.(!k) p
      done;
      incr k
    in
    let top = Array.length ate_digits - 1 in
    for i = top - 1 downto 0 do
      if i < top - 1 then f := Fp12.sqr !f;
      step ();
      if ate_digits.(i) <> 0 then step ()
    done;
    step ();
    step ();
    !f
  end

let miller_loop (p : G1.t) (q : G2.t) : Fp12.t =
  multi_miller_loop [ (p, G2_prepared.of_g2 q) ]

(* ------------------------------------------------------------------ *)
(* Final exponentiation                                                 *)
(* ------------------------------------------------------------------ *)

(* The operations the hard part is built from, in the cyclotomic
   subgroup, where conj is the inverse. *)
module type CYCLOTOMIC = sig
  type t

  val mul : t -> t -> t
  val sqr : t -> t
  val conj : t -> t
  val frobenius : t -> t
  val exp_by_u : t -> t
end

(* r^(p^3 (12u^3 + 6u^2 + 4u - 1) + p^2 (12u^3 + 6u^2 + 6u)
     + p (12u^3 + 6u^2 + 4u) + (12u^3 + 12u^2 + 6u + 1)). *)
module Hard_part (G : CYCLOTOMIC) = struct
  let apply r =
    let y0 = G.conj (G.exp_by_u r) in (* r^-u *)
    let y1 = G.sqr y0 in (* r^-2u *)
    let y2 = G.sqr y1 in (* r^-4u *)
    let y3 = G.mul y2 y1 in (* r^-6u *)
    let y4 = G.conj (G.exp_by_u y3) in (* r^6u^2 *)
    let y5 = G.sqr y4 in (* r^12u^2 *)
    let y6 = G.exp_by_u y5 in (* r^12u^3 *)
    let y3 = G.conj y3 in (* r^6u *)
    let y7 = G.mul y6 y4 in (* 12u^3 + 6u^2 *)
    let y8 = G.mul y7 y3 in (* 12u^3 + 6u^2 + 6u *)
    let y9 = G.mul y8 y1 in (* 12u^3 + 6u^2 + 4u *)
    let y10 = G.mul y8 y4 in (* 12u^3 + 12u^2 + 6u *)
    let y11 = G.mul y10 r in (* 12u^3 + 12u^2 + 6u + 1 *)
    let y13 = G.mul (G.frobenius y9) y11 in
    let y14 = G.mul (G.frobenius (G.frobenius y8)) y13 in
    let y15 = G.frobenius (G.frobenius (G.frobenius (G.mul (G.conj r) y9))) in
    G.mul y15 y14
end

(* Exponentiation by u over its NAF digits: cyclotomic squarings, with the
   conjugate standing in for the inverse on -1 digits. *)
let exp_by_u (f : Fp12.t) : Fp12.t =
  let f_inv = Fp12.conj f in
  let top = Array.length u_digits - 1 in
  let acc = ref f in
  for i = top - 1 downto 0 do
    acc := Fp12.cyclotomic_sqr !acc;
    match u_digits.(i) with
    | 1 -> acc := Fp12.mul !acc f
    | -1 -> acc := Fp12.mul !acc f_inv
    | _ -> ()
  done;
  !acc

module Fast_hard_part = Hard_part (struct
  include Fp12

  let sqr = Fp12.cyclotomic_sqr
  let exp_by_u = exp_by_u
end)

(* The same chain over exponents: an element r^e of the cyclotomic
   subgroup, whose order divides phi = p^4 - p^2 + 1, is tracked as
   e mod phi. *)
let phi =
  let p2 = Nat.mul Fp.modulus Fp.modulus in
  Nat.add (Nat.sub (Nat.mul p2 p2) p2) Nat.one

module Exponent_hard_part = Hard_part (struct
  type t = Nat.t

  let mul a b = Nat.rem (Nat.add a b) phi
  let sqr a = mul a a
  let conj a = if Nat.is_zero a then a else Nat.sub phi a
  let frobenius a = Nat.rem (Nat.mul a Fp.modulus) phi
  let exp_by_u a = Nat.rem (Nat.mul a u) phi
end)

(* The declared exponent: lambda (p^12 - 1) / r.  The hard part's exponent
   (read off the chain above) must equal lambda phi / r, with lambda
   coprime to r so the pairing stays non-degenerate. *)
let final_exponent =
  let r = Fr.modulus in
  let lambda =
    let u2 = Nat.mul u u in
    Nat.mul (Nat.mul Nat.two u)
      (Nat.add (Nat.add (Nat.mul (Nat.of_int 6) u2) (Nat.mul (Nat.of_int 3) u)) Nat.one)
  in
  let hard, rem = Nat.divmod phi r in
  assert (Nat.is_zero rem);
  assert (Nat.equal (Exponent_hard_part.apply Nat.one) (Nat.mul lambda hard));
  let rec gcd a b = if Nat.is_zero b then a else gcd b (Nat.rem a b) in
  assert (Nat.equal (gcd r lambda) Nat.one);
  let p = Fp.modulus in
  let p2 = Nat.mul p p in
  let p6 = Nat.mul (Nat.mul p2 p2) p2 in
  let p12_minus_1 = Nat.sub (Nat.mul p6 p6) Nat.one in
  let e, rem = Nat.divmod (Nat.mul lambda p12_minus_1) r in
  assert (Nat.is_zero rem);
  e

(* Fp12 operations per final exponentiation, for the per-call counters. *)
let final_exp_sqrs = 3 * (Array.length u_digits - 1) + 3
let final_exp_muls = 3 * (nonzero u_digits - 1) + 10 + 2 (* + 2: easy part *)

let final_exponentiation (f : Fp12.t) : Gt.t =
  if Fp12.is_zero f then Fp12.zero
  else begin
    Telemetry.count "pairing.final_exps" 1;
    Telemetry.count "pairing.fp12_cyclotomic_sqr" final_exp_sqrs;
    Telemetry.count "pairing.fp12_mul" final_exp_muls;
    (* Easy part: f^((p^6 - 1)(p^2 + 1)). *)
    let t0 = Fp12.mul (Fp12.conj f) (Fp12.inv f) in
    let t1 = Fp12.mul (Fp12.frobenius (Fp12.frobenius t0)) t0 in
    Fast_hard_part.apply t1
  end

let pairing (p : G1.t) (q : G2.t) : Gt.t =
  final_exponentiation (miller_loop p q)

let pairing_check_prepared (pairs : (G1.t * G2_prepared.t) list) : bool =
  Gt.is_one (final_exponentiation (multi_miller_loop pairs))

(* Preparation is independent per point, so it runs on the parallel pool;
   the loop itself is one sequential pass, identical at any pool size. *)
let pairing_check (pairs : (G1.t * G2.t) list) : bool =
  let prepared =
    Zkdet_parallel.Pool.parallel_map_array
      (fun (_, q) -> G2_prepared.of_g2 q)
      (Array.of_list pairs)
  in
  pairing_check_prepared (List.mapi (fun i (p, _) -> (p, prepared.(i))) pairs)
