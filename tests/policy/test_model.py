"""Tests for object references (>=O), statements, directories and consents."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PolicyError
from repro.policy import (
    ANY_SUBJECT,
    ConsentRegistry,
    ObjectRef,
    Policy,
    Statement,
    UserDirectory,
)


class TestObjectRefParsing:
    def test_named_subject(self):
        ref = ObjectRef.parse("[Jane]EPR/Clinical")
        assert ref.subject == "Jane"
        assert ref.path == ("EPR", "Clinical")

    def test_wildcard_subject_dot(self):
        assert ObjectRef.parse("[.]EPR").subject == ANY_SUBJECT

    def test_wildcard_subject_star(self):
        assert ObjectRef.parse("[*]EPR").subject == ANY_SUBJECT

    def test_no_subject(self):
        ref = ObjectRef.parse("ClinicalTrial/Criteria")
        assert ref.subject is None
        assert ref.path == ("ClinicalTrial", "Criteria")

    def test_round_trip(self):
        for text in ("[Jane]EPR/Clinical", "[.]EPR", "ClinicalTrial/Criteria"):
            assert str(ObjectRef.parse(text)) == text

    def test_unterminated_subject_rejected(self):
        with pytest.raises(PolicyError):
            ObjectRef.parse("[JaneEPR")

    def test_empty_path_rejected(self):
        with pytest.raises(PolicyError):
            ObjectRef.parse("[Jane]")


class TestObjectOrder:
    """The partial order >=O of Section 3.1."""

    def test_prefix_covers_descendant(self):
        epr = ObjectRef.parse("[Jane]EPR")
        clinical = ObjectRef.parse("[Jane]EPR/Clinical")
        assert epr.covers(clinical)
        assert not clinical.covers(epr)

    def test_reflexive(self):
        ref = ObjectRef.parse("[Jane]EPR/Clinical")
        assert ref.covers(ref)

    def test_sibling_paths_unrelated(self):
        a = ObjectRef.parse("[Jane]EPR/Clinical")
        b = ObjectRef.parse("[Jane]EPR/Demographics")
        assert not a.covers(b)
        assert not b.covers(a)

    def test_wildcard_subject_covers_named(self):
        stmt = ObjectRef.parse("[.]EPR/Clinical")
        req = ObjectRef.parse("[Jane]EPR/Clinical/Tests")
        assert stmt.covers(req)

    def test_named_subject_does_not_cover_other_subject(self):
        jane = ObjectRef.parse("[Jane]EPR")
        david = ObjectRef.parse("[David]EPR/Clinical")
        assert not jane.covers(david)

    def test_subjectless_does_not_cover_subjected(self):
        trial = ObjectRef.parse("ClinicalTrial")
        subjected = ObjectRef("Jane", ("ClinicalTrial",))
        assert not trial.covers(subjected)

    def test_wildcard_covers_subjectless(self):
        # [.]X covers plain X (any-subject includes "no subject recorded")
        wildcard = ObjectRef.parse("[.]Software")
        plain = ObjectRef.parse("Software/Scanner")
        assert wildcard.covers(plain)

    def test_with_subject(self):
        template = ObjectRef.parse("[.]EPR/Clinical")
        jane = template.with_subject("Jane")
        assert jane.subject == "Jane"
        assert jane.path == template.path


class TestPolicyAndStatements:
    def test_statement_str_marks_consent(self):
        stmt = Statement(
            "Physician", "read", ObjectRef.parse("[.]EPR"), "clinicaltrial",
            requires_consent=True,
        )
        assert "[consent]" in str(stmt)

    def test_policy_accumulates(self):
        policy = Policy()
        policy.add(
            Statement("A", "read", ObjectRef.parse("[.]EPR"), "treatment")
        )
        policy.extend(
            [Statement("B", "write", ObjectRef.parse("[.]EPR"), "research")]
        )
        assert len(policy) == 2

    def test_for_purpose(self):
        policy = Policy()
        policy.add(Statement("A", "read", ObjectRef.parse("X"), "p1"))
        policy.add(Statement("B", "read", ObjectRef.parse("X"), "p2"))
        assert len(policy.for_purpose("p1")) == 1


class TestUserDirectory:
    def test_assign_and_lookup(self):
        directory = UserDirectory()
        directory.assign("Bob", "Cardiologist")
        assert directory.roles_of("Bob") == {"Cardiologist"}

    def test_multiple_roles(self):
        directory = UserDirectory()
        directory.assign("Eve", "GP", "Researcher")
        assert directory.roles_of("Eve") == {"GP", "Researcher"}

    def test_revoke(self):
        directory = UserDirectory()
        directory.assign("Bob", "Cardiologist", "Researcher")
        directory.revoke("Bob", "Researcher")
        assert directory.roles_of("Bob") == {"Cardiologist"}

    def test_unknown_user_has_no_roles(self):
        assert UserDirectory().roles_of("ghost") == frozenset()

    def test_users_with_role(self):
        directory = UserDirectory()
        directory.assign("Bob", "Cardiologist")
        directory.assign("Carol", "Cardiologist")
        directory.assign("John", "GP")
        assert directory.users_with_role("Cardiologist") == {"Bob", "Carol"}

    def test_empty_user_rejected(self):
        with pytest.raises(PolicyError):
            UserDirectory().assign("", "GP")


class TestConsentRegistry:
    def test_grant_and_check(self):
        registry = ConsentRegistry()
        registry.grant("Alice", "clinicaltrial")
        assert registry.has_consented("Alice", "clinicaltrial")
        assert not registry.has_consented("Jane", "clinicaltrial")

    def test_withdraw(self):
        registry = ConsentRegistry()
        registry.grant("Alice", "clinicaltrial")
        registry.withdraw("Alice", "clinicaltrial")
        assert not registry.has_consented("Alice", "clinicaltrial")

    def test_none_subject_never_consents(self):
        registry = ConsentRegistry()
        assert not registry.has_consented(None, "clinicaltrial")

    def test_consenting_subjects(self):
        registry = ConsentRegistry()
        registry.grant("Alice", "clinicaltrial")
        registry.grant("Bob", "clinicaltrial")
        registry.grant("Alice", "marketing")
        assert registry.consenting_subjects("clinicaltrial") == {"Alice", "Bob"}


class TestObjectRefMemo:
    """Parsing goes through a bounded memo: equal texts share one frozen
    instance, so every entry naming the same object holds one copy."""

    @staticmethod
    def _uncached(text):
        from repro.policy.model import _parse_object

        return _parse_object(text)

    @given(
        st.one_of(
            st.text(alphabet="[]./*JaneEPR ", max_size=14),
            st.builds(
                "[{}]{}".format,
                st.text(alphabet="Ja.* ", max_size=3),
                st.text(alphabet="EPR/Cl", max_size=9),
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_memoized_parse_equals_uncached_parse(self, text):
        try:
            expected = self._uncached(text)
        except PolicyError:
            for _ in range(2):  # a failure is never remembered
                with pytest.raises(PolicyError):
                    ObjectRef.parse(text)
            return
        first = ObjectRef.parse(text)
        assert first == expected
        assert str(first) == str(expected)
        again = "".join(list(text))  # equal text, another str object
        assert ObjectRef.parse(again) is first

    def test_memo_is_bounded(self):
        from repro.policy.model import PARSE_MEMO_SIZE, _parse_memo

        assert _parse_memo.cache_info().maxsize == PARSE_MEMO_SIZE == 1 << 16
