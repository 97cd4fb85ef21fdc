//! Chunk-aligned shard planning: which contiguous row range each
//! federated client owns, and how a range decomposes into the aligned
//! dyadic runs the merge tree can replay.
//!
//! Bit-identity with a single-machine fit rests on one grid rule: a
//! pre-merged run of `2^rank` chunks can only be replayed at a global
//! chunk position divisible by `2^rank` — otherwise the replay would
//! group floating-point sums the single-machine binary counter never
//! groups. So every client except the last must own a whole number of
//! chunks (a chunk that mixed two clients' rows could not be replayed at
//! all), and each client pre-merges its chunks as the **aligned dyadic
//! segments** of its range: greedily, the longest power-of-two run that
//! both starts at its own multiple and fits the remaining range.

use crate::error::{protocol, Result};

/// One client's slice of a federated round, on the shared chunk grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientShare {
    /// First row of the client's contiguous range.
    pub start_row: usize,
    /// Rows in the range (`chunks · chunk_rows + tail_rows`).
    pub rows: usize,
    /// The client's first chunk on the shared grid.
    pub start_chunk: usize,
    /// Whole chunks the client owns.
    pub chunks: usize,
    /// Ragged-tail rows past the last whole chunk — nonzero only for the
    /// final client.
    pub tail_rows: usize,
}

/// A round's complete row partition: contiguous, chunk-aligned,
/// balanced shares covering `[0, total_rows)` in client order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// The shared chunk-grid size.
    pub chunk_rows: usize,
    /// Rows covered by the whole round.
    pub total_rows: usize,
    /// Per-client shares, in upload order.
    pub shares: Vec<ClientShare>,
}

impl ShardPlan {
    /// Splits `total_rows` across `clients` contiguous, chunk-aligned
    /// shares: whole chunks are distributed as evenly as possible
    /// (earlier clients take the remainder), and the ragged tail past the
    /// last whole chunk goes to the final client. Clients beyond the
    /// chunk count receive empty shares — they still participate in the
    /// round (and are still debited) but contribute no rows.
    ///
    /// # Errors
    /// [`crate::FederatedError::Protocol`] for zero clients or a zero
    /// chunk size.
    pub fn new(total_rows: usize, clients: usize, chunk_rows: usize) -> Result<Self> {
        if clients == 0 {
            return Err(protocol("a federated round needs at least one client"));
        }
        if chunk_rows == 0 {
            return Err(protocol("chunk_rows must be ≥ 1"));
        }
        let full_chunks = total_rows / chunk_rows;
        let tail = total_rows % chunk_rows;
        let base = full_chunks / clients;
        let extra = full_chunks % clients;
        let mut shares = Vec::with_capacity(clients);
        let mut chunk = 0usize;
        for i in 0..clients {
            let chunks = base + usize::from(i < extra);
            let tail_rows = if i == clients - 1 { tail } else { 0 };
            shares.push(ClientShare {
                start_row: chunk * chunk_rows,
                rows: chunks * chunk_rows + tail_rows,
                start_chunk: chunk,
                chunks,
                tail_rows,
            });
            chunk += chunks;
        }
        Ok(ShardPlan {
            chunk_rows,
            total_rows,
            shares,
        })
    }

    /// Re-packs clients of **known geometry** — `(whole chunks,
    /// tail rows)` per client, in order — contiguously from chunk 0.
    /// This is the recovery planner of a quorum round: when a client
    /// drops, the survivors keep the chunk counts of the uploads they
    /// already computed, and this constructor assigns them the new grid
    /// positions that close the dropped client's hole. Each survivor's
    /// data is untouched; only `start_chunk`/`start_row` move.
    ///
    /// # Errors
    /// [`crate::FederatedError::Protocol`] for an empty geometry, a zero
    /// chunk size, a tail as large as a chunk, tail rows anywhere but
    /// the final client (the merge tree stages at most one partial
    /// chunk, at the end of the grid), or a geometry whose chunk or row
    /// count overflows `usize`.
    pub fn from_client_geometry(chunk_rows: usize, geometry: &[(usize, usize)]) -> Result<Self> {
        if geometry.is_empty() {
            return Err(protocol("a recovery plan needs at least one client"));
        }
        if chunk_rows == 0 {
            return Err(protocol("chunk_rows must be ≥ 1"));
        }
        let last = geometry.len() - 1;
        let mut shares = Vec::with_capacity(geometry.len());
        let mut chunk = 0usize;
        let mut rows = 0usize;
        for (i, &(chunks, tail_rows)) in geometry.iter().enumerate() {
            if tail_rows >= chunk_rows {
                return Err(protocol(format!(
                    "{tail_rows} tail rows cannot fit a {chunk_rows}-row chunk mid-fill"
                )));
            }
            if tail_rows > 0 && i != last {
                return Err(protocol(
                    "only the final client of a plan may carry a partial chunk",
                ));
            }
            let overflow = || protocol(format!("client {i}'s geometry overflows the chunk grid"));
            let client_rows = chunks
                .checked_mul(chunk_rows)
                .and_then(|r| r.checked_add(tail_rows))
                .ok_or_else(overflow)?;
            shares.push(ClientShare {
                start_row: rows,
                rows: client_rows,
                start_chunk: chunk,
                chunks,
                tail_rows,
            });
            chunk = chunk.checked_add(chunks).ok_or_else(overflow)?;
            rows = rows.checked_add(client_rows).ok_or_else(overflow)?;
        }
        Ok(ShardPlan {
            chunk_rows,
            total_rows: rows,
            shares,
        })
    }
}

/// Greedy aligned-dyadic segmentation of the chunk range
/// `[start_chunk, start_chunk + chunks)`: each segment `(start, rank)`
/// covers `2^rank` chunks, where `2^rank` is the largest power of two
/// that both divides `start` and fits the remaining range. Replaying the
/// segments in order through the merge tree's `push_run` reproduces the
/// single-machine grouping exactly (`fm_core::assembly` machine-checks
/// the equivalence for every split point).
#[must_use]
pub fn dyadic_segments(start_chunk: usize, chunks: usize) -> Vec<(usize, u32)> {
    let mut segs = Vec::new();
    let mut c = start_chunk;
    let mut m = chunks;
    while m > 0 {
        let align = if c == 0 {
            usize::MAX
        } else {
            1usize << c.trailing_zeros()
        };
        let mut len = 1usize;
        while len * 2 <= m && len * 2 <= align {
            len *= 2;
        }
        segs.push((c, len.trailing_zeros()));
        c += len;
        m -= len;
    }
    segs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_contiguous_chunk_aligned_and_exhaustive() {
        for total in [0usize, 1, 7, 8, 65, 1000] {
            for clients in [1usize, 2, 3, 7] {
                for chunk_rows in [1usize, 4, 8] {
                    let plan = ShardPlan::new(total, clients, chunk_rows).unwrap();
                    assert_eq!(plan.shares.len(), clients);
                    let mut row = 0usize;
                    let mut chunk = 0usize;
                    for (i, s) in plan.shares.iter().enumerate() {
                        assert_eq!(s.start_row, row, "total={total} clients={clients}");
                        assert_eq!(s.start_chunk, chunk);
                        assert_eq!(s.rows, s.chunks * chunk_rows + s.tail_rows);
                        if i != clients - 1 {
                            assert_eq!(s.tail_rows, 0, "tail must sit with the final client");
                        }
                        row += s.rows;
                        chunk += s.chunks;
                    }
                    assert_eq!(row, total, "shares must cover every row exactly once");
                    // Balanced: chunk counts differ by at most one.
                    let min = plan.shares.iter().map(|s| s.chunks).min().unwrap();
                    let max = plan.shares.iter().map(|s| s.chunks).max().unwrap();
                    assert!(max - min <= 1);
                }
            }
        }
        assert!(ShardPlan::new(10, 0, 4).is_err());
        assert!(ShardPlan::new(10, 2, 0).is_err());
    }

    #[test]
    fn recovery_plans_repack_survivor_geometry_contiguously() {
        // Dropping the middle client of a 3-way plan: survivors keep
        // their chunk counts but close the hole from chunk 0.
        let plan = ShardPlan::from_client_geometry(4, &[(3, 0), (2, 3)]).unwrap();
        assert_eq!(plan.total_rows, 3 * 4 + 2 * 4 + 3);
        assert_eq!(plan.shares[0].start_chunk, 0);
        assert_eq!(plan.shares[0].start_row, 0);
        assert_eq!(plan.shares[1].start_chunk, 3);
        assert_eq!(plan.shares[1].start_row, 12);
        assert_eq!(plan.shares[1].tail_rows, 3);

        // A recovery plan over survivor geometry equals a fresh plan
        // over the survivors' pooled rows when the chunk counts match
        // what ShardPlan::new would hand out.
        let fresh = ShardPlan::new(64, 2, 4).unwrap();
        let geometry: Vec<(usize, usize)> = fresh
            .shares
            .iter()
            .map(|s| (s.chunks, s.tail_rows))
            .collect();
        assert_eq!(
            ShardPlan::from_client_geometry(4, &geometry).unwrap(),
            fresh
        );

        // Mid-plan tails and oversized tails are refused.
        assert!(ShardPlan::from_client_geometry(4, &[(1, 2), (1, 0)]).is_err());
        assert!(ShardPlan::from_client_geometry(4, &[(1, 4)]).is_err());
        assert!(ShardPlan::from_client_geometry(0, &[(1, 0)]).is_err());
        assert!(ShardPlan::from_client_geometry(4, &[]).is_err());
        // Geometry that overflows the row or chunk count is refused with
        // a typed error, never wrapped or a panic.
        for geometry in [
            &[(1usize << 62, 0usize)][..],
            &[(usize::MAX / 4, 0), (1, 3)],
            &[(usize::MAX, 0), (1, 0)],
        ] {
            assert!(matches!(
                ShardPlan::from_client_geometry(4, geometry),
                Err(crate::FederatedError::Protocol { .. })
            ));
        }
    }

    #[test]
    fn dyadic_segments_cover_ranges_with_aligned_runs() {
        for start in 0usize..40 {
            for chunks in 0usize..40 {
                let segs = dyadic_segments(start, chunks);
                let mut at = start;
                for &(c, rank) in &segs {
                    assert_eq!(c, at, "segments must be contiguous");
                    let len = 1usize << rank;
                    assert_eq!(c % len, 0, "run of 2^{rank} chunks unaligned at {c}");
                    at += len;
                }
                assert_eq!(at, start + chunks, "segments must cover the range");
            }
        }
        // The canonical decomposition from the merge-tree tests.
        assert_eq!(dyadic_segments(5, 3), vec![(5, 0), (6, 1)]);
        assert_eq!(dyadic_segments(0, 6), vec![(0, 2), (4, 1)]);
    }
}
