from repro.sparse import segment_ids_from_ptr


class TestSegmentIds:
    def test_basic(self):
        assert list(segment_ids_from_ptr([0, 2, 2, 5])) == [0, 0, 2, 2, 2]

    def test_all_empty_segments(self):
        assert list(segment_ids_from_ptr([0, 0, 0, 0])) == []

    def test_single_segment(self):
        assert list(segment_ids_from_ptr([0, 4])) == [0, 0, 0, 0]

    def test_leading_empty(self):
        # segment 0 empty; elements belong to segment 1
        assert list(segment_ids_from_ptr([0, 0, 3])) == [1, 1, 1]

    def test_explicit_total(self):
        ids = segment_ids_from_ptr([0, 2, 4], total=4)
        assert list(ids) == [0, 0, 1, 1]
