//! The model's derivation, in full — documentation only.
//!
//! The technical report containing the original model's equations
//! (\[Sale87a\], cited by the paper for "details of the model") was never
//! widely circulated, so this reproduction re-derives the model from the
//! paper's prose and calibrates it against every quantitative statement
//! the paper makes. This module is the canonical write-up; the code in
//! [`crate::AnalyticModel`] implements it term for term.
//!
//! # Notation
//!
//! From Tables 2a–2d: unit costs `C_lock`, `C_alloc`, `C_io`, `C_lsn`
//! (instructions), data movement at 1 instruction/word; disks serving a
//! `d`-word I/O in `T_seek + T_trans·d` seconds, `N_bdisks` of them with
//! linearly scaling aggregate bandwidth; database of `S_db` words in
//! `N_seg = S_db/S_seg` segments of `S_seg` words (`S_rec`-word records);
//! load of `λ` identical transactions/second, each updating `N_ru`
//! distinct uniform records at a base cost of `C_trans`.
//!
//! Derived: per-segment I/O service time `t_io = T_seek + T_trans·S_seg`;
//! per-segment update rate `μ = λ·N_ru / N_seg`.
//!
//! # Checkpoint duration
//!
//! A checkpoint flushing `n` segments keeps the array busy for
//! `D_act(n) = 2·t_hdr + n·t_io / N_bdisks` seconds (the two `t_hdr`
//! terms are the ping-pong in-progress/complete header writes, which
//! bound the duration at very low loads — without them the fixed point
//! below collapses to zero).
//!
//! How many segments does a **partial** checkpoint flush? The target
//! ping-pong copy was last written two intervals ago (copies alternate),
//! so with uniform updates
//!
//! ```text
//! E[n_flush](D) = N_seg · (1 − e^(−μ·2D))
//! ```
//!
//! Run "as fast as possible" (the paper's minimum-duration setting), the
//! interval is the fixed point `D* = D_act(E[n_flush](D*))`, found by
//! iteration from the full-flush time. A configured interval larger than
//! `D*` leaves the checkpointer idle for the difference; the *active
//! fraction* `f = D_act/D` matters to the two-color abort rate below.
//!
//! At the paper's defaults, `D* ≈ 89.5 s` — matching §2.3's envelope
//! ("an entire 1 gigabyte database ... checkpointed every 100 seconds
//! (fast)").
//!
//! # Asynchronous (checkpointer) cost
//!
//! Per checkpoint, mirroring the engine operation for operation:
//!
//! * a dirty-bit scan of 1 instruction per segment examined — the non-2C
//!   algorithms examine all `N_seg`; the two-color pair pays one
//!   `N_seg` paint/dirty pass at begin and then sweeps only its frozen
//!   white list (`n_flush` entries);
//! * fixed I/O initiations: begin header + complete header + end-marker
//!   log force (plus the begin log force for COU) at `C_io` each;
//! * per flushed segment, by algorithm (`lsn` = `C_lsn` if the write-
//!   ahead gate applies — dropped entirely under a stable log tail):
//!
//! | algorithm   | per-flush instructions |
//! |-------------|------------------------|
//! | `FASTFUZZY` | `C_io` |
//! | `FUZZYCOPY` | `2·C_alloc + S_seg + lsn + C_io` |
//! | `2CFLUSH`   | `2·C_lock + lsn + C_io` |
//! | `2CCOPY`    | `2·C_lock + 2·C_alloc + S_seg + lsn + C_io` |
//! | `COUFLUSH`  | live: `2·C_lock + C_io`; old-copy: `2·C_lock + C_alloc + C_io` |
//! | `COUCOPY`   | live: `2·C_lock + 2·C_alloc + S_seg + C_io`; old-copy as COUFLUSH |
//! | `COUAC`     | COUCOPY's shape plus `lsn` on live flushes |
//!
//! The per-transaction figure divides the per-checkpoint total by
//! `λ·D` — the paper's amortization rule (§4: "the asynchronous cost is
//! divided by the number of transactions that run during the duration of
//! the checkpoint").
//!
//! # Synchronous (transaction-side) cost
//!
//! * **LSN maintenance**: `N_ru·C_lsn` per transaction for the gated
//!   algorithms (§2.1: `C_lsn` "is charged ... to update a LSN when a
//!   transaction makes an update").
//! * **COU old-copy saves**: the sweep reaches segment `i` at
//!   `t_i ≈ (i/N_seg)·D_act`; the segment is copied iff some transaction
//!   updates it first, so
//!
//!   ```text
//!   E[copies] = Σᵢ (1 − e^(−μ·tᵢ)) ≈ N_seg · (1 − (1 − e^(−μ·D_act))/(μ·D_act))
//!   ```
//!
//!   each at `C_alloc + S_seg` instructions, amortized over `λ·D`
//!   transactions. Of the copied segments, the flush fraction
//!   `n_flush/N_seg` is written from the old copy (the rest already
//!   match the target ping-pong copy and are skipped).
//!
//!   That is the paper's term, and Figures 4a–4e keep it. The engine
//!   copies per record ([`crate::CouGranularity::Record`]): the first
//!   update opens an empty copy (`C_alloc`), each update saves the record
//!   it overwrites once (`S_rec`), and the sweep builds each copy's
//!   `S_seg` image — asynchronous work. A record is saved iff updated
//!   before its segment is swept, so `E[saves]` is `E[copies]` with
//!   `N_rec` for `N_seg` and `ν = λ·N_ru/N_rec` for `μ`.
//! * **Two-color reruns**: at begin the white fraction is
//!   `w₀ = n_flush/N_seg` (clean segments are painted black instantly —
//!   their backup images already match) and decays linearly to zero over
//!   the active period. An arriving transaction with `N_ru` uniform
//!   accesses straddles colors with probability
//!   `p(w) = 1 − w^N − (1−w)^N`, so averaged over arrival times
//!
//!   ```text
//!   p̄ = f · [ 1 − (1 − (1−w₀)^{N+1})/(w₀(N+1)) − w₀^N/(N+1) ]
//!   ```
//!
//!   At the defaults (`w₀ ≈ 1`, `f = 1`, `N = 5`): `p̄ = 1 − 2/6 = 2/3`.
//!   An aborted transaction is resubmitted after the conflicting
//!   checkpoint completes — where it cannot conflict again — so the
//!   expected rerun count is `p̄` itself, each rerun re-charging
//!   `C_trans` plus the synchronous LSN work. (Blind immediate retry
//!   against the same frozen colors would rerun `O(w₀·N_seg)` times; the
//!   simulator demonstrated that pathology, and both sides of the
//!   cross-validation now implement resubmit-after-completion.)
//!
//! Note `p̄` is **not** monotone in `w₀`: an all-white begin lets early
//! arrivals run all-white and commit, so the abort peak sits below
//! `w₀ = 1` — and stretching the checkpoint interval (which grows `w₀`)
//! can *raise* two-color overhead at some operating points even as it
//! amortizes the flush work better.
//!
//! # Recovery time
//!
//! `T_rec = backup read + log read` (§4 models recovery as I/O-bound):
//!
//! ```text
//! backup read = N_seg · t_io / N_bdisks
//! log read    = T_seek + replay_words · T_trans / N_bdisks
//! ```
//!
//! The replay volume spans 1.5 checkpoint intervals on average (the
//! completed checkpoint's begin marker is uniformly 1–2 intervals old
//! under ping-pong alternation) at the per-transaction log bulk computed
//! from the engine's actual record encoding — one `TxnCommit` frame of
//! `N_ru` after-images. The engine logs a transaction only when it
//! commits, so an aborted run leaves nothing in the log and reruns add
//! no bulk; the paper's update-time logging penalizes the two-color
//! algorithms (its stated direction — 2C recovers slightly slower —
//! holds here with equality).
//!
//! # Calibration anchors
//!
//! | paper statement | model |
//! |---|---|
//! | full flush ≈ 100 s at defaults (§2.3) | `D* = 89.5 s` |
//! | FASTFUZZY "a few hundred instructions per transaction" (§4) | 367 |
//! | COU "no more costly than ... a fuzzy backup" (§4) | 3 454 vs 3 547 |
//! | two-color "relatively high cost ... from rerunning" (§4) | 17–20 k, 16.7 k of it rerun |
//! | "recovery times ... vary little" (§4) | 93.1 s, all five |
//! | ~15 MB/s total backup+log bandwidth (§2.3) | 15.4 MB/s |
//!
//! The decisive check is the discrete-event testbed (`mmdb-sim`), which
//! *executes* the algorithms and reproduces the model's overhead within
//! a few percent for all seven — see `EXPERIMENTS.md`.
