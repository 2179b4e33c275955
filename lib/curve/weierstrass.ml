(* Short Weierstrass curves y^2 = x^3 + b (a = 0, the BN shape) over an
   arbitrary field, in Jacobian coordinates. Instantiated for G1 (over Fp)
   and G2 (over Fp2). *)

module Nat = Zkdet_num.Nat
module Fr = Zkdet_field.Bn254.Fr
module Pool = Zkdet_parallel.Pool
module Telemetry = Zkdet_telemetry.Telemetry

module type CURVE_FIELD = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t
  val sqr : t -> t
  val double : t -> t
  val inv : t -> t

  (** Flat kernel buffers (see {!Zkdet_field.Field_intf.CORE}): [n]
      mutable cells addressed by index, contiguous for the BN254 base
      field.  Every operand is a [(buf, index)] pair and destinations
      may alias sources, so the batch-affine MSM inner loops allocate
      nothing per field operation. *)

  type buf

  val buf_create : int -> buf
  val buf_get : buf -> int -> t
  val buf_set : buf -> int -> t -> unit

  val buf_blit : buf -> int -> buf -> int -> int -> unit
  (** [buf_blit src spos dst dpos len]; overlaps are handled. *)

  val buf_mul : buf -> int -> buf -> int -> buf -> int -> unit
  val buf_sqr : buf -> int -> buf -> int -> unit
  val buf_add : buf -> int -> buf -> int -> buf -> int -> unit
  val buf_sub : buf -> int -> buf -> int -> buf -> int -> unit
  val buf_double : buf -> int -> buf -> int -> unit
  val buf_neg : buf -> int -> buf -> int -> unit
  val buf_is_zero : buf -> int -> bool
  val buf_equal : buf -> int -> buf -> int -> bool

  val buf_batch_inv0 : scratch:buf -> buf -> int -> unit
  (** In-place batch inversion over the first [n] cells (zero cells stay
      zero — the "absent" marker of the batch-affine adders); [scratch]
      needs [n + 2] cells. *)

  val equal : t -> t -> bool
  val is_zero : t -> bool
  val to_bytes : t -> string
  val of_bytes : string -> t

  val num_bytes : int
  (** Width of [to_bytes] output (fixed). *)

  val of_bytes_canonical : string -> (t, string) result
  (** Strict decoder: exactly [num_bytes] bytes, each coordinate below the
      modulus (no reduction). *)

  val sqrt_opt : t -> t option

  val parity : t -> bool
  (** Sign bit for point compression; flips under negation for any
      non-zero element. *)

  val pp : Format.formatter -> t -> unit
end

module type PARAMS = sig
  module F : CURVE_FIELD

  val b : F.t
  val generator : F.t * F.t

  val subgroup_check : bool
  (** Whether decoded points must additionally pass an order-[r] subgroup
      check (true for G2, whose twist has a non-trivial cofactor; false
      for G1, where on-curve implies in-subgroup). *)
end

module Make (P : PARAMS) = struct
  module F = P.F

  (* z = 0 encodes the point at infinity. *)
  type t = { x : F.t; y : F.t; z : F.t }

  let zero = { x = F.one; y = F.one; z = F.zero }
  let is_zero p = F.is_zero p.z

  let on_curve_affine x y =
    F.equal (F.sqr y) (F.add (F.mul (F.sqr x) x) P.b)

  let of_affine (x, y) =
    if not (on_curve_affine x y) then invalid_arg "Weierstrass.of_affine: not on curve";
    { x; y; z = F.one }

  let of_affine_unchecked (x, y) = { x; y; z = F.one }

  let to_affine p =
    if is_zero p then None
    else begin
      let zinv = F.inv p.z in
      let zinv2 = F.sqr zinv in
      Some (F.mul p.x zinv2, F.mul p.y (F.mul zinv2 zinv))
    end

  let generator = of_affine P.generator

  let neg p = if is_zero p then p else { p with y = F.neg p.y }

  let equal p q =
    match (is_zero p, is_zero q) with
    | true, true -> true
    | true, false | false, true -> false
    | false, false ->
      let z1z1 = F.sqr p.z and z2z2 = F.sqr q.z in
      F.equal (F.mul p.x z2z2) (F.mul q.x z1z1)
      && F.equal (F.mul p.y (F.mul z2z2 q.z)) (F.mul q.y (F.mul z1z1 p.z))

  let double p =
    if is_zero p then p
    else if F.is_zero p.y then zero
    else begin
      (* dbl-2009-l *)
      let a = F.sqr p.x in
      let b = F.sqr p.y in
      let c = F.sqr b in
      let d = F.double (F.sub (F.sub (F.sqr (F.add p.x b)) a) c) in
      let e = F.add (F.double a) a in
      let f = F.sqr e in
      let x3 = F.sub f (F.double d) in
      let y3 = F.sub (F.mul e (F.sub d x3)) (F.double (F.double (F.double c))) in
      let z3 = F.double (F.mul p.y p.z) in
      { x = x3; y = y3; z = z3 }
    end

  let add p q =
    if is_zero p then q
    else if is_zero q then p
    else begin
      (* add-2007-bl *)
      let z1z1 = F.sqr p.z in
      let z2z2 = F.sqr q.z in
      let u1 = F.mul p.x z2z2 in
      let u2 = F.mul q.x z1z1 in
      let s1 = F.mul p.y (F.mul z2z2 q.z) in
      let s2 = F.mul q.y (F.mul z1z1 p.z) in
      if F.equal u1 u2 then
        if F.equal s1 s2 then double p else zero
      else begin
        let h = F.sub u2 u1 in
        let i = F.sqr (F.double h) in
        let j = F.mul h i in
        let r = F.double (F.sub s2 s1) in
        let v = F.mul u1 i in
        let x3 = F.sub (F.sub (F.sqr r) j) (F.double v) in
        let y3 = F.sub (F.mul r (F.sub v x3)) (F.double (F.mul s1 j)) in
        let z3 = F.mul (F.sub (F.sub (F.sqr (F.add p.z q.z)) z1z1) z2z2) h in
        { x = x3; y = y3; z = z3 }
      end
    end

  let sub_point p q = add p (neg q)

  (* Mixed addition (q affine, z = 1): 7M + 4S vs 11M + 5S for full
     addition. The workhorse of the MSM bucket phase. *)
  let add_mixed p ((x2, y2) : F.t * F.t) =
    if is_zero p then { x = x2; y = y2; z = F.one }
    else begin
      let z1z1 = F.sqr p.z in
      let u2 = F.mul x2 z1z1 in
      let s2 = F.mul y2 (F.mul p.z z1z1) in
      if F.equal p.x u2 then
        if F.equal p.y s2 then double p else zero
      else begin
        let h = F.sub u2 p.x in
        let hh = F.sqr h in
        let i = F.double (F.double hh) in
        let j = F.mul h i in
        let r = F.double (F.sub s2 p.y) in
        let v = F.mul p.x i in
        let x3 = F.sub (F.sub (F.sqr r) j) (F.double v) in
        let y3 = F.sub (F.mul r (F.sub v x3)) (F.double (F.mul p.y j)) in
        let z3 = F.sub (F.sub (F.sqr (F.add p.z h)) z1z1) hh in
        { x = x3; y = y3; z = z3 }
      end
    end

  (* Affine coordinates of many points into flat buffers, with one shared
     inversion (Montgomery's batch-inversion trick): cell i of [ax]/[ay]
     holds point i when [finite.(i)]; identity points leave zero cells.
     Every field op runs on buffer cells, so nothing is allocated per
     point. *)
  let batch_to_affine_bufs (points : t array) =
    let n = Array.length points in
    let ax = F.buf_create (max n 1) and ay = F.buf_create (max n 1) in
    let finite = Array.map (fun p -> not (is_zero p)) points in
    (* prefix cell i: product of the finite z's before i; cell n: running
       product, then running inverse.  tmp: z, 1/z, 1/z^2. *)
    let prefix = F.buf_create (n + 1) and tmp = F.buf_create 3 in
    F.buf_set prefix n F.one;
    for i = 0 to n - 1 do
      F.buf_blit prefix n prefix i 1;
      if finite.(i) then begin
        F.buf_set tmp 0 points.(i).z;
        F.buf_mul prefix n prefix n tmp 0
      end
    done;
    F.buf_set prefix n (F.inv (F.buf_get prefix n));
    for i = n - 1 downto 0 do
      if finite.(i) then begin
        let p = points.(i) in
        F.buf_set tmp 0 p.z;
        F.buf_mul tmp 1 prefix n prefix i;
        F.buf_mul prefix n prefix n tmp 0;
        F.buf_sqr tmp 2 tmp 1;
        F.buf_set ax i p.x;
        F.buf_mul ax i ax i tmp 2;
        F.buf_mul tmp 2 tmp 2 tmp 1;
        F.buf_set ay i p.y;
        F.buf_mul ay i ay i tmp 2
      end
    done;
    (ax, ay, finite)

  (** Normalize many points to affine with one shared inversion.
      Infinity maps to [None]. *)
  let batch_to_affine (points : t array) : (F.t * F.t) option array =
    let ax, ay, finite = batch_to_affine_bufs points in
    Array.mapi
      (fun i f -> if f then Some (F.buf_get ax i, F.buf_get ay i) else None)
      finite

  let mul_nat p (e : Nat.t) =
    let nbits = Nat.num_bits e in
    let acc = ref zero in
    for i = nbits - 1 downto 0 do
      acc := double !acc;
      if Nat.testbit e i then acc := add !acc p
    done;
    !acc

  let mul p (s : Fr.t) = mul_nat p (Fr.to_nat s)

  let mul_int p k =
    if k >= 0 then mul_nat p (Nat.of_int k) else neg (mul_nat p (Nat.of_int (-k)))

  (* ================= Pippenger multi-scalar multiplication =================

     Signed-digit (wNAF-style) windows over batch-affine buckets:

     - Scalars decompose into digits d_w in (-2^(c-1), 2^(c-1)] with
       sum_w d_w 2^(cw) = s.  A negative digit files the *negated* affine
       point under bucket |d_w|, halving the bucket count per window.
     - Bucket contents are reduced by rounds of pairwise affine additions
       whose slope denominators are inverted together — one field
       inversion per round (Montgomery's trick, F.batch_inv0) — at ~6
       field mults per addition vs ~11 for Jacobian add_mixed.
     - Points are partitioned into chunks whose count depends only on n;
       each chunk computes every window and chunks are merged in fixed
       index order, so the result (and hence any proof bytes built from
       it) is identical at any pool size / ZKDET_DOMAINS.
     - After the chunks, each window merges its buckets and takes its
       running sum as a separate pool task, in in-place XYZZ
       accumulators; only the Horner walk over the window sums is
       serial. *)

  let scalar_bits = Fr.num_bits

  (* One extra window absorbs the final carry of the signed digits. *)
  let nwindows_for c = ((scalar_bits + c - 1) / c) + 1

  (* Window width by input size for the generic (per-window bucket sets)
     path; tuned by the `msm` bench sweep — see EXPERIMENTS.md. *)
  let pick_window n =
    if n < 32 then 3
    else if n < 128 then 5
    else if n < 512 then 6
    else if n < 2048 then 7
    else if n < 4096 then 8
    else if n < 8192 then 9
    else if n < 32768 then 10
    else 11

  (* Chunk count for the point partition. Depends only on n — never on
     the pool size — so chunk boundaries (and the merge) are stable. *)
  let nchunks_for n = if n < 256 then 1 else min 4 (n / 128)

  (* Limb count of the scratch buffer [signed_digits] extracts into (one
     spare limb so the top window's straddling read stays in bounds). *)
  let digit_limbs = ((scalar_bits + Nat.limb_bits - 1) / Nat.limb_bits) + 1

  (* Writes the signed digits of [s] into [out] (length >= nwindows_for c).
     [limbs] is caller-provided scratch of [digit_limbs] ints, reused
     across scalars; extracting limbs once makes each window an O(1)
     shift/mask. *)
  let signed_digits ~c (limbs : int array) (out : int array) (s : Fr.t) : unit =
    let nat = Fr.to_nat s in
    let lb = Nat.limb_bits in
    for i = 0 to digit_limbs - 1 do
      limbs.(i) <- Nat.limb nat i
    done;
    let mask = (1 lsl c) - 1 in
    let half = 1 lsl (c - 1) in
    let nw = nwindows_for c in
    let carry = ref 0 in
    for w = 0 to nw - 2 do
      let lo = w * c in
      let l = lo / lb and off = lo mod lb in
      let v = limbs.(l) lsr off in
      let v = if off + c > lb then v lor (limbs.(l + 1) lsl (lb - off)) else v in
      let v = (v land mask) + !carry in
      if v > half then begin
        out.(w) <- v - (2 * half);
        carry := 1
      end else begin
        out.(w) <- v;
        carry := 0
      end
    done;
    out.(nw - 1) <- !carry

  (* Batched affine bucket accumulation. [ex]/[ey] are flat F buffers
     ({!F.buf_create}); entries for bucket b occupy cells
     start.(b) .. start.(b) + len.(b) - 1, all finite affine points.
     Rounds of pairwise additions shrink every bucket to at most one
     survivor (left at start.(b)); each round resolves all its slope
     denominators in place with ONE field inversion. A zero denominator
     marks an annihilating P + (-P) pair, which simply drops out —
     identity entries are never stored, only skipped. Every field op
     reads and writes preallocated buffer cells through the (buf, index)
     kernels, so the whole reduction allocates only its scratch buffers. *)
  let reduce_buckets ~(ex : F.buf) ~(ey : F.buf) ~(start : int array)
      ~(len : int array) : unit =
    let nbuckets = Array.length start in
    let total = Array.fold_left ( + ) 0 len in
    if total > 1 then begin
      let cap = (total / 2) + 1 in
      let den = F.buf_create cap in
      let num = F.buf_create cap in
      let scratch = F.buf_create (cap + 2) in
      let tmp = F.buf_create 3 in
      let pending = ref true in
      while !pending do
        pending := false;
        (* Phase 1: classify each pair, collecting slope numerators and
           denominators.  Doubling uses (3x^2) / (2y); distinct x uses
           (y2 - y1) / (x2 - x1); x1 = x2 with y1 = -y1 annihilates. *)
        let np = ref 0 in
        for b = 0 to nbuckets - 1 do
          let m = len.(b) in
          for k = 0 to (m / 2) - 1 do
            let i = start.(b) + (2 * k) in
            (if F.buf_equal ex i ex (i + 1) then
               if F.buf_equal ey i ey (i + 1) && not (F.buf_is_zero ey i)
               then begin
                 F.buf_sqr num !np ex i;
                 F.buf_double tmp 0 num !np;
                 F.buf_add num !np tmp 0 num !np;
                 F.buf_double den !np ey i
               end else begin
                 F.buf_set num !np F.zero;
                 F.buf_set den !np F.zero
               end
             else begin
               F.buf_sub num !np ey (i + 1) ey i;
               F.buf_sub den !np ex (i + 1) ex i
             end);
            incr np
          done
        done;
        if !np > 0 then begin
          Telemetry.count "curve.msm.batch_add_rounds" 1;
          F.buf_batch_inv0 ~scratch den !np;
          (* Phase 2: apply the additions, compacting each bucket in
             place.  The write pointer never passes the read index, and
             an odd leftover entry is preserved at the tail. *)
          let np2 = ref 0 in
          for b = 0 to nbuckets - 1 do
            let m = len.(b) in
            if m > 1 then begin
              let wp = ref (start.(b)) in
              for k = 0 to (m / 2) - 1 do
                let i = start.(b) + (2 * k) in
                if not (F.buf_is_zero den !np2) then begin
                  (* tmp0 = lambda, tmp1 = x3, tmp2 = y3, all materialized
                     before the writeback — cell !wp may be cell i. *)
                  F.buf_mul tmp 0 num !np2 den !np2;
                  F.buf_sqr tmp 1 tmp 0;
                  F.buf_sub tmp 1 tmp 1 ex i;
                  F.buf_sub tmp 1 tmp 1 ex (i + 1);
                  F.buf_sub tmp 2 ex i tmp 1;
                  F.buf_mul tmp 2 tmp 0 tmp 2;
                  F.buf_sub tmp 2 tmp 2 ey i;
                  F.buf_blit tmp 1 ex !wp 1;
                  F.buf_blit tmp 2 ey !wp 1;
                  incr wp
                end;
                incr np2
              done;
              if m land 1 = 1 then begin
                let i = start.(b) + m - 1 in
                if !wp <> i then begin
                  F.buf_blit ex i ex !wp 1;
                  F.buf_blit ey i ey !wp 1
                end;
                incr wp
              end;
              len.(b) <- !wp - start.(b);
              if len.(b) > 1 then pending := true
            end
          done
        end
      done
    end

  (* ---- in-place XYZZ accumulators for the running sums ----

     A point (X, Y, ZZ, ZZZ) stands for the affine (X/ZZ, Y/ZZZ), with
     ZZ^3 = ZZZ^2; ZZ = 0 is the identity.  Each accumulator occupies four
     consecutive cells of one workspace buffer and every formula writes
     its intermediates to scratch cells of the same buffer, so a running
     sum over thousands of buckets allocates nothing.  Formulas are
     madd-2008-s, add-2008-s and dbl-2008-s-1 (a = 0) from the EFD. *)

  (* Workspace cells: three accumulators, then scratch. *)
  let xyzz_running = 0
  let xyzz_sum = 4
  let xyzz_acc = 8
  let xyzz_tmp = 12
  let xyzz_cells = xyzz_tmp + 8

  let xyzz_workspace () = F.buf_create xyzz_cells

  let xyzz_is_zero ws p = F.buf_is_zero ws (p + 2)

  let xyzz_set_zero ws p =
    F.buf_set ws (p + 2) F.zero;
    F.buf_set ws (p + 3) F.zero

  (* p <- 2p *)
  let xyzz_dbl ws p =
    if not (xyzz_is_zero ws p) then begin
      let x = p and y = p + 1 and zz = p + 2 and zzz = p + 3 in
      let u = xyzz_tmp and v = xyzz_tmp + 1 and w = xyzz_tmp + 2 in
      let s = xyzz_tmp + 3 and m = xyzz_tmp + 4 and t = xyzz_tmp + 5 in
      F.buf_double ws u ws y;
      F.buf_sqr ws v ws u;
      F.buf_mul ws w ws u ws v;
      F.buf_mul ws s ws x ws v;
      F.buf_sqr ws m ws x;
      F.buf_double ws t ws m;
      F.buf_add ws m ws m ws t;
      F.buf_mul ws zz ws zz ws v;
      F.buf_mul ws zzz ws zzz ws w;
      (* X3 = M^2 - 2S *)
      F.buf_sqr ws t ws m;
      F.buf_double ws x ws s;
      F.buf_sub ws x ws t ws x;
      (* Y3 = M (S - X3) - W Y1; a 2-torsion input (Y1 = 0) leaves
         ZZ3 = 0, the identity. *)
      F.buf_sub ws s ws s ws x;
      F.buf_mul ws s ws m ws s;
      F.buf_mul ws w ws w ws y;
      F.buf_sub ws y ws s ws w
    end

  (* Shared tail of the additions: given P = U2 - U1 in [pc], R = S2 - S1
     in [rc], U1 in [uc] and S1 in [sc], finish X3, Y3 and scale ZZ/ZZZ by
     PP/PPP (the caller has already multiplied in the other operand's). *)
  let xyzz_add_tail ws p ~pc ~rc ~uc ~sc =
    let x = p and y = p + 1 and zz = p + 2 and zzz = p + 3 in
    let pp = xyzz_tmp + 6 and ppp = xyzz_tmp + 7 in
    F.buf_sqr ws pp ws pc;
    F.buf_mul ws ppp ws pc ws pp;
    (* Q = U1 PP, reusing U1's cell *)
    F.buf_mul ws uc ws uc ws pp;
    F.buf_mul ws zz ws zz ws pp;
    F.buf_mul ws zzz ws zzz ws ppp;
    (* X3 = R^2 - PPP - 2Q *)
    F.buf_sqr ws pc ws rc;
    F.buf_sub ws pc ws pc ws ppp;
    F.buf_double ws x ws uc;
    F.buf_sub ws x ws pc ws x;
    (* Y3 = R (Q - X3) - S1 PPP *)
    F.buf_sub ws uc ws uc ws x;
    F.buf_mul ws uc ws rc ws uc;
    F.buf_mul ws sc ws sc ws ppp;
    F.buf_sub ws y ws uc ws sc

  (* p <- p + (ax[i], ay[i]), a finite affine point. *)
  let xyzz_add_affine ws p (ax : F.buf) (ay : F.buf) i =
    if xyzz_is_zero ws p then begin
      F.buf_blit ax i ws p 1;
      F.buf_blit ay i ws (p + 1) 1;
      F.buf_set ws (p + 2) F.one;
      F.buf_set ws (p + 3) F.one
    end
    else begin
      let pc = xyzz_tmp and rc = xyzz_tmp + 1 in
      let uc = xyzz_tmp + 2 and sc = xyzz_tmp + 3 in
      (* P = X2 ZZ1 - X1, R = Y2 ZZZ1 - Y1 *)
      F.buf_mul ws pc ax i ws (p + 2);
      F.buf_sub ws pc ws pc ws p;
      F.buf_mul ws rc ay i ws (p + 3);
      F.buf_sub ws rc ws rc ws (p + 1);
      if F.buf_is_zero ws pc then
        if F.buf_is_zero ws rc then xyzz_dbl ws p else xyzz_set_zero ws p
      else begin
        F.buf_blit ws p ws uc 1;
        F.buf_blit ws (p + 1) ws sc 1;
        xyzz_add_tail ws p ~pc ~rc ~uc ~sc
      end
    end

  (* p <- p + q, where q is the accumulator at cell [q] of [qb] (another
     workspace, or another accumulator of this one). *)
  let xyzz_add ws p (qb : F.buf) q =
    if xyzz_is_zero ws p then F.buf_blit qb q ws p 4
    else if not (xyzz_is_zero qb q) then begin
      let pc = xyzz_tmp and rc = xyzz_tmp + 1 in
      let uc = xyzz_tmp + 2 and sc = xyzz_tmp + 3 in
      (* U1 = X1 ZZ2, S1 = Y1 ZZZ2, P = X2 ZZ1 - U1, R = Y2 ZZZ1 - S1 *)
      F.buf_mul ws uc ws p qb (q + 2);
      F.buf_mul ws sc ws (p + 1) qb (q + 3);
      F.buf_mul ws pc qb q ws (p + 2);
      F.buf_sub ws pc ws pc ws uc;
      F.buf_mul ws rc qb (q + 1) ws (p + 3);
      F.buf_sub ws rc ws rc ws sc;
      if F.buf_is_zero ws pc then
        if F.buf_is_zero ws rc then xyzz_dbl ws p else xyzz_set_zero ws p
      else begin
        F.buf_mul ws (p + 2) ws (p + 2) qb (q + 2);
        F.buf_mul ws (p + 3) ws (p + 3) qb (q + 3);
        xyzz_add_tail ws p ~pc ~rc ~uc ~sc
      end
    end

  (* The accumulator as a Jacobian point: (X ZZ^2, Y ZZZ^2, ZZZ). *)
  let xyzz_to_point ws p =
    if xyzz_is_zero ws p then zero
    else begin
      let t = xyzz_tmp in
      F.buf_sqr ws t ws (p + 2);
      F.buf_mul ws t ws t ws p;
      F.buf_sqr ws (t + 1) ws (p + 3);
      F.buf_mul ws (t + 1) ws (t + 1) ws (p + 1);
      { x = F.buf_get ws t; y = F.buf_get ws (t + 1); z = F.buf_get ws (p + 3) }
    end

  (* Running-sum trick over reduced buckets, into the workspace's
     [xyzz_sum] accumulator: sum_{b} (b + 1) * bucket_b. *)
  let bucket_running_sum ws ~(ex : F.buf) ~(ey : F.buf) ~start ~len =
    xyzz_set_zero ws xyzz_running;
    xyzz_set_zero ws xyzz_sum;
    for b = Array.length len - 1 downto 0 do
      if len.(b) = 1 then xyzz_add_affine ws xyzz_running ex ey start.(b);
      xyzz_add ws xyzz_sum ws xyzz_running
    done

  (* Chunk output: the surviving bucket points, sorted by bucket index.
     Chunks must NOT pay the running sum themselves — it costs
     O(nbuckets) curve adds and would be multiplied by the chunk count —
     so survivors are handed back for one shared cross-chunk reduction
     per window. *)
  type survivors = { sn : int; sb : int array; sx : F.buf; sy : F.buf }

  let compact_survivors ~(ex : F.buf) ~(ey : F.buf) ~start ~len =
    let nbuckets = Array.length start in
    let ns = ref 0 in
    for b = 0 to nbuckets - 1 do
      if len.(b) = 1 then incr ns
    done;
    let sb = Array.make (max !ns 1) 0 in
    let sx = F.buf_create (max !ns 1) in
    let sy = F.buf_create (max !ns 1) in
    let k = ref 0 in
    for b = 0 to nbuckets - 1 do
      if len.(b) = 1 then begin
        sb.(!k) <- b;
        F.buf_blit ex start.(b) sx !k 1;
        F.buf_blit ey start.(b) sy !k 1;
        incr k
      end
    done;
    { sn = !ns; sb; sx; sy }

  (* First index k < n with a.(k) >= x (n if none); [a] is ascending. *)
  let lower_bound (a : int array) n x =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Merge the per-chunk survivors of buckets [first, first + nbuckets):
     one more counting sort (entries for a bucket appear in chunk index
     order — the deterministic merge) and one more batch-affine reduction,
     at most ceil(log2 nchunks) rounds.  Returns the per-bucket arrays of
     the range, rebased to 0, each bucket holding <= 1 point. *)
  let merge_survivors ~first ~nbuckets (parts : survivors array) =
    let ranges =
      Array.map
        (fun p ->
          (lower_bound p.sb p.sn first, lower_bound p.sb p.sn (first + nbuckets)))
        parts
    in
    let counts = Array.make nbuckets 0 in
    Array.iteri
      (fun i p ->
        let lo, hi = ranges.(i) in
        for k = lo to hi - 1 do
          let b = p.sb.(k) - first in
          counts.(b) <- counts.(b) + 1
        done)
      parts;
    let start = Array.make nbuckets 0 in
    let acc = ref 0 in
    for b = 0 to nbuckets - 1 do
      start.(b) <- !acc;
      acc := !acc + counts.(b)
    done;
    let total = !acc in
    let ex = F.buf_create (max total 1) in
    let ey = F.buf_create (max total 1) in
    let fill = Array.make nbuckets 0 in
    Array.iteri
      (fun i p ->
        let lo, hi = ranges.(i) in
        for k = lo to hi - 1 do
          let b = p.sb.(k) - first in
          let pos = start.(b) + fill.(b) in
          fill.(b) <- fill.(b) + 1;
          F.buf_blit p.sx k ex pos 1;
          F.buf_blit p.sy k ey pos 1
        done)
      parts;
    reduce_buckets ~ex ~ey ~start ~len:fill;
    (ex, ey, start, fill)

  (* One chunk of the generic MSM: points [lo, hi) against their scalars,
     every window at once.  All windows share the entry arrays so each
     batch-inversion round spans every window's buckets. *)
  let msm_chunk ~c ~(ax : F.buf) ~(ay : F.buf) ~(finite : bool array)
      ~(scalars : Fr.t array) lo hi =
    let nw = nwindows_for c in
    let half = 1 lsl (c - 1) in
    let nbuckets = nw * half in
    let nchunk = hi - lo in
    let digits = Array.make (max 1 (nchunk * nw)) 0 in
    let dig_buf = Array.make nw 0 in
    let limbs = Array.make digit_limbs 0 in
    let counts = Array.make nbuckets 0 in
    for i = 0 to nchunk - 1 do
      (* an identity input contributes nothing: its digits stay 0 *)
      if finite.(lo + i) then begin
        signed_digits ~c limbs dig_buf scalars.(lo + i);
        for w = 0 to nw - 1 do
          let d = dig_buf.(w) in
          digits.((i * nw) + w) <- d;
          if d <> 0 then begin
            let b = (w * half) + abs d - 1 in
            counts.(b) <- counts.(b) + 1
          end
        done
      end
    done;
    let start = Array.make nbuckets 0 in
    let acc = ref 0 in
    for b = 0 to nbuckets - 1 do
      start.(b) <- !acc;
      acc := !acc + counts.(b)
    done;
    let total = !acc in
    let ex = F.buf_create (max total 1) in
    let ey = F.buf_create (max total 1) in
    let fill = Array.make nbuckets 0 in
    for i = 0 to nchunk - 1 do
      let k = lo + i in
      for w = 0 to nw - 1 do
        let d = digits.((i * nw) + w) in
        if d <> 0 then begin
          let b = (w * half) + abs d - 1 in
          let pos = start.(b) + fill.(b) in
          fill.(b) <- fill.(b) + 1;
          F.buf_blit ax k ex pos 1;
          if d > 0 then F.buf_blit ay k ey pos 1 else F.buf_neg ey pos ay k
        end
      done
    done;
    (* after filling, fill.(b) = counts.(b): reuse it as the live length *)
    reduce_buckets ~ex ~ey ~start ~len:fill;
    compact_survivors ~ex ~ey ~start ~len:fill

  (** Pippenger MSM at an explicit window width (2..16). Exposed for the
      differential tests and the bench sweep; [msm] picks the width. *)
  let msm_with_window ~window:c (points : t array) (scalars : Fr.t array) =
    let n = Array.length points in
    if n <> Array.length scalars then invalid_arg "Weierstrass.msm: length mismatch";
    if c < 2 || c > 16 then invalid_arg "Weierstrass.msm: window outside [2, 16]";
    if n = 0 then zero
    else begin
      let ax, ay, finite = batch_to_affine_bufs points in
      let nw = nwindows_for c in
      let half = 1 lsl (c - 1) in
      let nchunks = nchunks_for n in
      let parts =
        Pool.parallel_init nchunks (fun ci ->
            msm_chunk ~c ~ax ~ay ~finite ~scalars (ci * n / nchunks)
              ((ci + 1) * n / nchunks))
      in
      (* Windows are independent from here on: each merges its buckets'
         survivors and takes its running sum as its own task. *)
      let sums =
        Pool.parallel_init nw (fun w ->
            let ex, ey, start, len =
              merge_survivors ~first:(w * half) ~nbuckets:half parts
            in
            let ws = xyzz_workspace () in
            bucket_running_sum ws ~ex ~ey ~start ~len;
            ws)
      in
      (* Horner walk over the window sums, doubling c times between
         windows. *)
      let ws = xyzz_workspace () in
      xyzz_set_zero ws xyzz_acc;
      for w = nw - 1 downto 0 do
        for _ = 1 to c do
          xyzz_dbl ws xyzz_acc
        done;
        xyzz_add ws xyzz_acc sums.(w) xyzz_sum
      done;
      xyzz_to_point ws xyzz_acc
    end

  (* Pippenger multi-scalar multiplication: sum_i scalars(i) * points(i). *)
  let msm (points : t array) (scalars : Fr.t array) =
    let n = Array.length points in
    if n <> Array.length scalars then invalid_arg "Weierstrass.msm: length mismatch";
    Telemetry.count "curve.msm.calls" 1;
    Telemetry.count "curve.msm.points" n;
    Telemetry.observe "curve.msm.size" (float_of_int n);
    if n = 0 then zero
    else if n < 8 then begin
      let acc = ref zero in
      for i = 0 to n - 1 do
        acc := add !acc (mul points.(i) scalars.(i))
      done;
      !acc
    end
    else begin
      let c = pick_window n in
      Telemetry.observe "curve.msm.window_bits" (float_of_int c);
      msm_with_window ~window:c points scalars
    end

  (* Fixed-base scalar multiplication: precompute d * 2^(c*j) * base for a
     window width c, turning each subsequent scalar mul into ~(254/c) point
     additions. Used to generate SRS powers quickly. *)
  module Fixed_base = struct
    type table = { window : int; rows : t array array }

    let create ?(window = 8) base =
      let total_bits = Fr.num_bits in
      let nwindows = (total_bits + window - 1) / window in
      let rows =
        Array.init nwindows (fun _ -> Array.make ((1 lsl window) - 1) zero)
      in
      let cur = ref base in
      for j = 0 to nwindows - 1 do
        let acc = ref zero in
        for d = 0 to (1 lsl window) - 2 do
          acc := add !acc !cur;
          rows.(j).(d) <- !acc
        done;
        for _ = 1 to window do
          cur := double !cur
        done
      done;
      { window; rows }

    let mul { window; rows } (s : Fr.t) =
      let nat = Fr.to_nat s in
      let total_bits = Fr.num_bits in
      let acc = ref zero in
      for j = 0 to Array.length rows - 1 do
        let v = ref 0 in
        for b = window - 1 downto 0 do
          let bit = (j * window) + b in
          v := (!v lsl 1) lor (if bit < total_bits && Nat.testbit nat bit then 1 else 0)
        done;
        if !v > 0 then acc := add !acc rows.(j).(!v - 1)
      done;
      !acc

    (* ---- multi-base signed-window MSM tables ----

       Row (i, j) stores [2^(c*j)] P_i in affine form.  With every window
       of every base pre-shifted, an MSM over a prefix of the bases needs
       no doublings at all: all (base, window) digit entries land in ONE
       shared set of 2^(c-1) buckets and a single running sum finishes the
       job.  That makes much larger windows pay off than in the generic
       path (the running sum is paid once per MSM, not once per window). *)

    type msm_table = {
      mwindow : int;  (* signed window width c *)
      mnwindows : int;  (* rows per base = nwindows_for c *)
      mbases : int;
      mx : F.buf;  (* mbases * mnwindows flat cells, row-major by base *)
      my : F.buf;
      mfinite : bool array;  (* false marks rows of an identity base *)
    }

    let msm_window t = t.mwindow
    let msm_size t = t.mbases

    (* Window width when all windows share one bucket set; tuned by the
       `msm` bench sweep — see EXPERIMENTS.md. *)
    let msm_window_for n = if n <= 128 then 8 else if n <= 512 then 10 else 11

    let of_rows ~window ~nbases (rows : t array) =
      let mx, my, mfinite = batch_to_affine_bufs rows in
      { mwindow = window; mnwindows = nwindows_for window; mbases = nbases;
        mx; my; mfinite }

    let msm_create ?window (points : t array) : msm_table =
      let n = Array.length points in
      let c = match window with Some c -> c | None -> msm_window_for n in
      if c < 2 || c > 16 then
        invalid_arg "Fixed_base.msm_create: window outside [2, 16]";
      let nw = nwindows_for c in
      let rows = Array.make (max (n * nw) 1) zero in
      let build lo hi =
        for i = lo to hi - 1 do
          let cur = ref points.(i) in
          for j = 0 to nw - 1 do
            rows.((i * nw) + j) <- !cur;
            for _ = 1 to c do
              cur := double !cur
            done
          done
        done
      in
      let nchunks = nchunks_for n in
      Pool.parallel_for_chunks ~chunks:nchunks 0 n (fun ~lo ~hi -> build lo hi);
      of_rows ~window:c ~nbases:n rows

    (** The table rows as points (row-major by base: base i's rows occupy
        indices [i * nwindows, (i+1) * nwindows)); identity bases yield
        identity rows.  Serialization uses this view. *)
    let msm_rows (t : msm_table) : t array =
      Array.init (t.mbases * t.mnwindows) (fun k ->
          if t.mfinite.(k) then
            of_affine_unchecked (F.buf_get t.mx k, F.buf_get t.my k)
          else zero)

    (** Rebuild a table from decoded rows (the inverse of {!msm_rows}).
        Checks only shape; callers validating untrusted bytes must also
        check row contents against the bases (see Srs). *)
    let msm_of_rows ~window ~nbases (rows : t array) :
        (msm_table, string) result =
      if window < 2 || window > 16 then Error "fixed-base window outside [2, 16]"
      else if Array.length rows <> nbases * nwindows_for window then
        Error "fixed-base table has the wrong number of rows"
      else Ok (of_rows ~window ~nbases rows)

    (* One chunk of a table MSM: bases [lo, hi) with their scalars, all
       windows into one shared bucket set. *)
    let msm_table_chunk (tb : msm_table) (scalars : Fr.t array) lo hi =
      let c = tb.mwindow in
      let nw = tb.mnwindows in
      let half = 1 lsl (c - 1) in
      let nchunk = hi - lo in
      let digits = Array.make (max 1 (nchunk * nw)) 0 in
      let dig_buf = Array.make nw 0 in
      let limbs = Array.make digit_limbs 0 in
      let counts = Array.make half 0 in
      for i = 0 to nchunk - 1 do
        signed_digits ~c limbs dig_buf scalars.(lo + i);
        for w = 0 to nw - 1 do
          let d = dig_buf.(w) in
          let d = if tb.mfinite.(((lo + i) * nw) + w) then d else 0 in
          digits.((i * nw) + w) <- d;
          if d <> 0 then counts.(abs d - 1) <- counts.(abs d - 1) + 1
        done
      done;
      let start = Array.make half 0 in
      let acc = ref 0 in
      for b = 0 to half - 1 do
        start.(b) <- !acc;
        acc := !acc + counts.(b)
      done;
      let total = !acc in
      let ex = F.buf_create (max total 1) in
      let ey = F.buf_create (max total 1) in
      let fill = Array.make half 0 in
      for i = 0 to nchunk - 1 do
        for w = 0 to nw - 1 do
          let d = digits.((i * nw) + w) in
          if d <> 0 then begin
            let b = abs d - 1 in
            let row = ((lo + i) * nw) + w in
            let pos = start.(b) + fill.(b) in
            fill.(b) <- fill.(b) + 1;
            F.buf_blit tb.mx row ex pos 1;
            if d > 0 then F.buf_blit tb.my row ey pos 1
            else F.buf_neg ey pos tb.my row
          end
        done
      done;
      reduce_buckets ~ex ~ey ~start ~len:fill;
      compact_survivors ~ex ~ey ~start ~len:fill

    (** MSM against the first [Array.length scalars] bases of the table.
        No doublings: every (base, window) entry is pre-shifted into ONE
        shared bucket set and a single running sum finishes. Chunked over
        bases with a fixed-order merge, same determinism contract as the
        generic {!msm}. *)
    let msm (tb : msm_table) (scalars : Fr.t array) =
      let n = Array.length scalars in
      if n > tb.mbases then
        invalid_arg "Fixed_base.msm: more scalars than table bases";
      Telemetry.count "curve.msm.calls" 1;
      Telemetry.count "curve.msm.points" n;
      Telemetry.count "curve.msm.fixed_base" 1;
      Telemetry.observe "curve.msm.size" (float_of_int n);
      if n = 0 then zero
      else begin
        Telemetry.observe "curve.msm.window_bits" (float_of_int tb.mwindow);
        let half = 1 lsl (tb.mwindow - 1) in
        let nchunks = nchunks_for n in
        let parts =
          Pool.parallel_init nchunks (fun ci ->
              msm_table_chunk tb scalars (ci * n / nchunks)
                ((ci + 1) * n / nchunks))
        in
        let ex, ey, start, len = merge_survivors ~first:0 ~nbuckets:half parts in
        let ws = xyzz_workspace () in
        bucket_running_sum ws ~ex ~ey ~start ~len;
        xyzz_to_point ws xyzz_sum
      end
  end

  let random st = mul generator (Fr.random st)

  (** Order-r subgroup membership. On-curve points always satisfy this for
      cofactor-1 curves (G1); the G2 twist needs the explicit check. *)
  let in_subgroup p = is_zero (mul_nat p Fr.modulus)

  let to_bytes p =
    match to_affine p with
    | None -> "\x00"
    | Some (x, y) -> "\x04" ^ F.to_bytes x ^ F.to_bytes y

  (** Fixed-width encoding: infinity is padded to the same length as a
      finite point so records containing points are fixed-size. *)
  let encoded_size = 1 + (2 * F.num_bytes)

  let to_bytes_fixed p =
    let s = to_bytes p in
    s ^ String.make (encoded_size - String.length s) '\x00'

  let all_zero_from s i =
    let rec go i = i >= String.length s || (s.[i] = '\x00' && go (i + 1)) in
    go i

  (* Shared validation for decoded affine coordinates: canonical field
     bytes were already enforced by the caller; here we enforce the curve
     equation and (when the params require it) subgroup membership. *)
  let checked_affine x y =
    if not (on_curve_affine x y) then Error "not on curve"
    else
      let p = { x; y; z = F.one } in
      if P.subgroup_check && not (in_subgroup p) then Error "not in subgroup"
      else Ok p

  (** Total decoder for the fixed-width uncompressed encoding.  Rejects
      bad lengths/tags, non-canonical (>= modulus) coordinates, off-curve
      points, non-zero infinity padding, and (for G2) points outside the
      order-r subgroup. *)
  let of_bytes_fixed_result (s : string) : (t, string) result =
    if String.length s <> encoded_size then Error "bad length"
    else
      match s.[0] with
      | '\x00' -> if all_zero_from s 1 then Ok zero else Error "bad infinity padding"
      | '\x04' -> (
        let fw = F.num_bytes in
        match
          ( F.of_bytes_canonical (String.sub s 1 fw),
            F.of_bytes_canonical (String.sub s (1 + fw) fw) )
        with
        | Ok x, Ok y -> checked_affine x y
        | Error e, _ | _, Error e -> Error e)
      | _ -> Error "bad tag"

  (** Parse a fixed-width encoding; validates canonicity, the curve
      equation and (for G2) the subgroup.  Raises on malformed input —
      prefer {!of_bytes_fixed_result} for untrusted bytes. *)
  let of_bytes_fixed (s : string) : t =
    match of_bytes_fixed_result s with
    | Ok p -> p
    | Error "bad length" -> invalid_arg "Weierstrass.of_bytes_fixed: bad length"
    | Error _ -> invalid_arg "Weierstrass.of_affine: not on curve"

  (* ---------------- compressed form: sign bit + x ---------------- *)

  let compressed_size = 1 + F.num_bytes

  let to_bytes_compressed p =
    match to_affine p with
    | None -> "\x00" ^ String.make F.num_bytes '\x00'
    | Some (x, y) -> (if F.parity y then "\x03" else "\x02") ^ F.to_bytes x

  (** Total decoder for the compressed encoding: recovers y as
      sqrt(x^3 + b) with the tagged sign, with the same validation rules
      as {!of_bytes_fixed_result}. *)
  let of_bytes_compressed_result (s : string) : (t, string) result =
    if String.length s <> compressed_size then Error "bad length"
    else
      match s.[0] with
      | '\x00' -> if all_zero_from s 1 then Ok zero else Error "bad infinity padding"
      | ('\x02' | '\x03') as tag -> (
        match F.of_bytes_canonical (String.sub s 1 F.num_bytes) with
        | Error e -> Error e
        | Ok x -> (
          let y2 = F.add (F.mul (F.sqr x) x) P.b in
          match F.sqrt_opt y2 with
          | None -> Error "x not on curve"
          | Some y ->
            let want_odd = tag = '\x03' in
            let y = if F.parity y = want_odd then y else F.neg y in
            checked_affine x y))
      | _ -> Error "bad tag"

  (* ---------------- canonical wire codecs ---------------- *)

  module C = Zkdet_codec.Codec

  (** Compressed point codec — the default for all new wire formats. *)
  let codec : t C.t =
    C.with_context "point"
      (C.conv to_bytes_compressed of_bytes_compressed_result
         (C.bytes_fixed compressed_size))

  (** Uncompressed point codec — larger but cheap to decode (no square
      root); used for bulk artifacts such as SRS power tables. *)
  let codec_uncompressed : t C.t =
    C.with_context "point"
      (C.conv to_bytes_fixed of_bytes_fixed_result (C.bytes_fixed encoded_size))

  let pp fmt p =
    match to_affine p with
    | None -> Format.pp_print_string fmt "O"
    | Some (x, y) -> Format.fprintf fmt "(%a, %a)" F.pp x F.pp y
end
