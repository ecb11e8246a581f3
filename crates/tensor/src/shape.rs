//! Shape bookkeeping for row-major tensors.

/// The extent of a tensor along each axis, row-major (last axis fastest).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// True when the shape has zero total elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extent along axis `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.0[i + 1];
        }
        s
    }

    /// Linear offset of a multi-index. Panics (debug) when out of range.
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.0.len(), "index rank mismatch");
        let mut off = 0usize;
        for (i, (&ix, &ext)) in idx.iter().zip(self.0.iter()).enumerate() {
            debug_assert!(ix < ext, "index {ix} out of range {ext} on axis {i}");
            let _ = i;
            off = off * ext + ix;
        }
        off
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_rank() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::from([2, 3, 4]);
        let st = s.strides();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(s.offset(&[i, j, k]), i * st[0] + j * st[1] + k * st[2]);
                }
            }
        }
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::from(Vec::new());
        assert_eq!(s.len(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::from([4, 5]).to_string(), "(4x5)");
    }
}
